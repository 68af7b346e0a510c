#include "infer/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "infer/kernels.h"
#include "infer/specialize.h"
#include "nn/module.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace musenet::infer {

namespace ag = musenet::autograd;
namespace ts = musenet::tensor;

Engine::Engine(eval::Forecaster& model, EngineOptions options)
    : model_(model),
      options_(options),
      // Cached once: registry lookups build std::string keys, which would
      // break the zero-allocation contract if done per run.
      runs_(&obs::GetCounter("infer.engine.runs")),
      sharded_runs_(&obs::GetCounter("infer.engine.sharded_runs")),
      fallbacks_(&obs::GetCounter("infer.engine.fallbacks")),
      spec_builds_(&obs::GetCounter("infer.engine.spec_builds")),
      spec_rejects_(&obs::GetCounter("infer.engine.spec_rejected")) {}

void Engine::FinalizeInstance(PlanInstance* inst) {
  inst->arena.assign(static_cast<size_t>(inst->plan.arena_elems), 0.0f);
  inst->ptrs.assign(inst->plan.buffers.size(), nullptr);
  // Arena and constant pointers never move; resolve them once. Weights and
  // inputs are refreshed every run, aliases after that.
  for (size_t i = 0; i < inst->plan.buffers.size(); ++i) {
    PlanBuffer& buf = inst->plan.buffers[i];
    if (buf.loc == BufLoc::kArena) {
      inst->ptrs[i] = inst->arena.data() + buf.arena_offset;
    } else if (buf.loc == BufLoc::kConstant) {
      inst->ptrs[i] = buf.constant.data();
    }
  }
}

bool Engine::BuildInstance(const data::Batch& batch, PlanInstance* inst) {
  // One-time planning pass: put the model in eval mode (deterministic
  // BN behavior — also what Predict uses), trace the forward with
  // the graph intact, and compile it.
  obs::ScopedSpan span("infer.plan.build", "batch", batch.batch_size());
  if (auto* module = dynamic_cast<nn::Module*>(&model_)) {
    module->SetTraining(false);
  }
  // The trace needs node->inputs intact even when the caller (an evaluation
  // loop) holds a skip-mode NoGradGuard.
  ag::NoGradGuard enable_graph(ag::NoGradGuard::Mode::kEnable);
  ag::Variable traced = model_.PlanForward(batch);
  if (!traced.defined()) return false;
  Result<Plan> plan = BuildPlan(traced, batch);
  // !ok: an op outside the planner's kind set; callers fall back.
  if (!plan.ok()) return false;
  inst->plan = std::move(plan).value();
  FinalizeInstance(inst);
  if (!options_.specialize) return true;

  // Plan-time specialization + accuracy gate: rewrite a copy, replay both
  // the base and the specialized plan on the planning batch, and adopt the
  // specialized plan only when its worst element delta clears the gate.
  const int64_t bsz = batch.batch_size();
  obs::ScopedSpan spec_span("infer.plan.specialize", "batch", bsz);
  PlanInstance spec;
  spec.plan = inst->plan;
  const Status st = SpecializePlan(&spec.plan);
  if (!st.ok() || !spec.plan.specialized) return true;  // Nothing to gain.
  FinalizeInstance(&spec);

  const float* inputs[3] = {batch.closeness.data(), batch.period.data(),
                            batch.trend.data()};
  ts::Tensor ref = ts::Tensor::Uninitialized(inst->plan.out_shape);
  RunWithInputs(*inst, inputs, ref.mutable_data());
  ts::Tensor got = ts::Tensor::Uninitialized(spec.plan.out_shape);
  RunWithInputs(spec, inputs, got.mutable_data());
  float worst = 0.0f;
  for (int64_t i = 0; i < ref.num_elements(); ++i) {
    worst = std::max(worst, std::abs(got.flat(i) - ref.flat(i)));
  }
  spec_delta_[bsz] = worst;
  if (worst <= options_.max_abs_delta) {
    *inst = std::move(spec);
    spec_active_[bsz] = true;
    spec_builds_->Add();
  } else {
    spec_active_[bsz] = false;
    spec_rejects_->Add();
  }
  return true;
}

Engine::PlanInstance* Engine::GetOrBuild(const data::Batch& batch) {
  const int64_t bsz = batch.batch_size();
  auto it = plans_.find(bsz);
  if (it != plans_.end()) return &it->second;
  if (fallback_.count(bsz) != 0) return nullptr;

  PlanInstance inst;
  if (!BuildInstance(batch, &inst)) {
    fallback_[bsz] = true;
    return nullptr;
  }
  auto [pos, inserted] = plans_.emplace(bsz, std::move(inst));
  MUSE_CHECK(inserted);
  return &pos->second;
}

std::vector<int64_t> Engine::PickLaneSizes(int64_t batch_size,
                                           int64_t threads) {
  if (threads <= 1 || batch_size <= 1) return {};
  const int64_t lanes = std::min(batch_size, threads);
  // Near-equal remainder split: sizes differ by at most one, so every
  // batch size ≥ 2 fans out (a divisor rule would leave prime sizes — 7
  // samples on 4 threads — running on a single lane).
  const int64_t base = batch_size / lanes;
  const int64_t rem = batch_size % lanes;
  std::vector<int64_t> sizes(static_cast<size_t>(lanes), base);
  for (int64_t i = 0; i < rem; ++i) ++sizes[static_cast<size_t>(i)];
  return sizes;
}

Engine::ShardSet* Engine::GetOrBuildShards(const data::Batch& batch) {
  const int64_t bsz = batch.batch_size();
  auto it = shard_sets_.find(bsz);
  if (it != shard_sets_.end()) return &it->second;
  if (shard_fallback_.count(bsz) != 0) return nullptr;
  std::vector<int64_t> sizes =
      PickLaneSizes(bsz, util::ActivePool().num_threads());
  if (sizes.empty()) return nullptr;
  const int64_t lanes = static_cast<int64_t>(sizes.size());

  // Trace once per distinct shard size (at most two — base and base+1);
  // same-size lanes share the compiled plan but get a private arena +
  // pointer table, so the lanes can replay concurrently without sharing
  // any mutable state.
  obs::ScopedSpan span("infer.plan.shard_build", "lanes", lanes);
  ShardSet set;
  set.sizes = std::move(sizes);
  set.offsets.resize(set.sizes.size(), 0);
  for (size_t i = 1; i < set.sizes.size(); ++i) {
    set.offsets[i] = set.offsets[i - 1] + set.sizes[i - 1];
  }
  set.lanes.resize(static_cast<size_t>(lanes));
  std::map<int64_t, size_t> first_of_size;
  for (size_t i = 0; i < set.lanes.size(); ++i) {
    const auto seen = first_of_size.find(set.sizes[i]);
    if (seen != first_of_size.end()) {
      set.lanes[i].plan = set.lanes[seen->second].plan;
      FinalizeInstance(&set.lanes[i]);
      continue;
    }
    data::Batch sub;
    const int64_t off = set.offsets[i];
    const int64_t len = set.sizes[i];
    sub.closeness = ts::Slice(batch.closeness, 0, off, len);
    sub.period = ts::Slice(batch.period, 0, off, len);
    sub.trend = ts::Slice(batch.trend, 0, off, len);
    sub.target = ts::Slice(batch.target, 0, off, len);
    const int64_t idx_take = std::min<int64_t>(
        len, static_cast<int64_t>(batch.target_indices.size()));
    sub.target_indices.assign(batch.target_indices.begin(),
                              batch.target_indices.begin() + idx_take);
    if (!BuildInstance(sub, &set.lanes[i])) {
      shard_fallback_[bsz] = true;
      return nullptr;
    }
    first_of_size[set.sizes[i]] = i;
  }
  std::vector<int64_t> dims = set.lanes[0].plan.out_shape.dims();
  dims[0] = bsz;
  set.out_shape = ts::Shape(std::move(dims));

  // Validate the per-sample-purity assumption end-to-end before trusting the
  // sharded path: a graph with any cross-sample op (a batch-axis reduction,
  // train-mode BN, ...) produces different numbers when split, and must run
  // on the full-batch plan instead. When specialization is active the lanes
  // carry specialized numerics, so the reference is the engine's own
  // full-batch plan (same specialization) rather than the model.
  ts::Tensor got = ts::Tensor::Uninitialized(set.out_shape);
  RunSharded(set, batch, got.mutable_data());
  ts::Tensor ref;
  PlanInstance* full =
      options_.specialize ? GetOrBuild(batch) : nullptr;
  if (full != nullptr) {
    ref = ts::Tensor::Uninitialized(full->plan.out_shape);
    Run(*full, batch, ref.mutable_data());
  } else {
    ref = model_.Predict(batch);
  }
  float worst = 0.0f;
  for (int64_t i = 0; i < ref.num_elements(); ++i) {
    worst = std::max(worst, std::abs(got.flat(i) - ref.flat(i)));
  }
  if (!(worst <= 1e-5f)) {
    shard_fallback_[bsz] = true;
    return nullptr;
  }
  auto [pos, inserted] = shard_sets_.emplace(bsz, std::move(set));
  MUSE_CHECK(inserted);
  return &pos->second;
}

void Engine::Run(PlanInstance& inst, const data::Batch& batch, float* out) {
  const float* inputs[3] = {batch.closeness.data(), batch.period.data(),
                            batch.trend.data()};
  RunWithInputs(inst, inputs, out);
  runs_->Add();
}

void Engine::RunWithInputs(PlanInstance& inst, const float* const inputs[3],
                           float* out) {
  // Hard error if anything inside the engine touches autograd: MakeOp
  // checks this guard and aborts, so a planned run provably builds no
  // graph nodes. The guard is thread-local, so it lives here (inside the
  // shard lane) rather than in the dispatching thread.
  ag::NoGradGuard no_graph(ag::NoGradGuard::Mode::kForbid);
  obs::ScopedSpan span("infer.run", "steps",
                       static_cast<int64_t>(inst.plan.steps.size()));
  const int64_t rid = trace_rid_.load(std::memory_order_relaxed);
  if (rid >= 0) span.SetArg2("rid", rid);

  for (size_t i = 0; i < inst.plan.buffers.size(); ++i) {
    const PlanBuffer& buf = inst.plan.buffers[i];
    switch (buf.loc) {
      case BufLoc::kArena:
      case BufLoc::kConstant:
        break;  // Resolved at build time; storage never moves.
      case BufLoc::kWeight:
        // The kernels never write through input pointers; const_cast only
        // reuses the shared float* buffer table.
        inst.ptrs[i] = const_cast<float*>(buf.weight->value.data());
        break;
      case BufLoc::kInput:
        inst.ptrs[i] = const_cast<float*>(inputs[buf.input_index]);
        break;
      case BufLoc::kAlias:
        inst.ptrs[i] = inst.ptrs[buf.alias_of];  // alias_of < i always.
        break;
    }
  }
  for (const Step& step : inst.plan.steps) {
    // Near-zero-cost when tracing is off (one relaxed atomic load); with
    // --trace-out every plan stage shows up as its own span.
    obs::ScopedSpan step_span(step.op_name);
    RunStep(step, inst.ptrs.data(), inst.plan);
  }
  const PlanBuffer& root = inst.plan.buffers[inst.plan.root];
  std::memcpy(out, inst.ptrs[inst.plan.root],
              sizeof(float) * static_cast<size_t>(root.elems));
}

void Engine::RunSharded(ShardSet& set, const data::Batch& batch, float* out) {
  const int64_t lanes = static_cast<int64_t>(set.lanes.size());
  obs::ScopedSpan span("infer.run.sharded", "lanes", lanes);
  const int64_t rid = trace_rid_.load(std::memory_order_relaxed);
  if (rid >= 0) span.SetArg2("rid", rid);
  const int64_t n = batch.batch_size();
  // Axis-0 slices of the contiguous [B, C, H, W] inputs are contiguous, so
  // each lane's inputs are plain base-pointer offsets — no gather needed.
  const int64_t per[3] = {batch.closeness.num_elements() / n,
                          batch.period.num_elements() / n,
                          batch.trend.num_elements() / n};
  const float* base[3] = {batch.closeness.data(), batch.period.data(),
                          batch.trend.data()};
  const int64_t out_per_sample =
      set.lanes[0].plan.buffers[set.lanes[0].plan.root].elems / set.sizes[0];
  // One pool dispatch for the whole inference. Kernels inside a lane see a
  // nested parallel region and run inline, so per-op dispatch overhead —
  // which dominates at serving tensor sizes — is paid exactly once.
  util::ActivePool().ParallelFor(0, lanes, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t lane = lo; lane < hi; ++lane) {
      const int64_t off = set.offsets[static_cast<size_t>(lane)];
      const float* inputs[3] = {base[0] + off * per[0],
                                base[1] + off * per[1],
                                base[2] + off * per[2]};
      RunWithInputs(set.lanes[static_cast<size_t>(lane)], inputs,
                    out + off * out_per_sample);
    }
  });
  runs_->Add();
  sharded_runs_->Add();
}

tensor::Tensor Engine::Predict(const data::Batch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ShardSet* set = GetOrBuildShards(batch)) {
    ts::Tensor out = ts::Tensor::Uninitialized(set->out_shape);
    RunSharded(*set, batch, out.mutable_data());
    return out;
  }
  PlanInstance* inst = GetOrBuild(batch);
  if (inst == nullptr) {
    fallbacks_->Add();
    return model_.Predict(batch);
  }
  ts::Tensor out = ts::Tensor::Uninitialized(inst->plan.out_shape);
  Run(*inst, batch, out.mutable_data());
  return out;
}

Status Engine::PredictInto(const data::Batch& batch, tensor::Tensor* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto sit = shard_sets_.find(batch.batch_size());
  if (sit != shard_sets_.end()) {
    if (!(out->shape() == sit->second.out_shape)) {
      return Status::InvalidArgument("PredictInto: output shape mismatch");
    }
    RunSharded(sit->second, batch, out->mutable_data());
    return Status::OK();
  }
  auto it = plans_.find(batch.batch_size());
  if (it == plans_.end()) {
    return Status::FailedPrecondition(
        "PredictInto requires a warm plan: call Predict once first");
  }
  PlanInstance& inst = it->second;
  if (!(out->shape() == inst.plan.out_shape)) {
    return Status::InvalidArgument("PredictInto: output shape mismatch");
  }
  Run(inst, batch, out->mutable_data());
  return Status::OK();
}

void Engine::InvalidatePlans() {
  std::lock_guard<std::mutex> lock(mu_);
  plans_.clear();
  shard_sets_.clear();
  fallback_.clear();
  shard_fallback_.clear();
  spec_active_.clear();
  spec_delta_.clear();
}

const Plan* Engine::plan_for(int64_t batch_size) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = plans_.find(batch_size);
  return it == plans_.end() ? nullptr : &it->second.plan;
}

int64_t Engine::shard_lanes_for(int64_t batch_size) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shard_sets_.find(batch_size);
  return it == shard_sets_.end()
             ? 0
             : static_cast<int64_t>(it->second.lanes.size());
}

std::vector<int64_t> Engine::shard_sizes_for(int64_t batch_size) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shard_sets_.find(batch_size);
  return it == shard_sets_.end() ? std::vector<int64_t>{} : it->second.sizes;
}

bool Engine::fallback_for(int64_t batch_size) const {
  std::lock_guard<std::mutex> lock(mu_);
  return fallback_.count(batch_size) != 0;
}

bool Engine::spec_active_for(int64_t batch_size) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spec_active_.find(batch_size);
  return it != spec_active_.end() && it->second;
}

float Engine::spec_delta_for(int64_t batch_size) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spec_delta_.find(batch_size);
  return it == spec_delta_.end() ? -1.0f : it->second;
}

}  // namespace musenet::infer
