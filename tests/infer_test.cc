// Coverage for the graph-free inference engine (src/infer):
// (a) planned inference matches the autograd eval forward within 1e-6 for
//     MUSE-Net and every baseline, at 1 and 4 threads, pooled and
//     pool-disabled — including on a batch the plan was NOT traced on;
// (b) steady-state PredictInto performs zero heap allocations (asserted the
//     same way obs_test asserts the disabled-span contract);
// (c) NoGradGuard semantics: skip builds value-only nodes, enable re-arms
//     tracing inside a skip scope, forbid makes op construction fatal;
// (d) unplannable models (HistoricalAverage-style) fall back to Predict;
// (e) the per-layer Conv2d workspace keeps repeated eval forwards off the
//     storage pool's fresh-allocation path;
// (f) plan-time specialization: the BN-folded fp32 plan matches the
//     unfused engine within 1e-5 for MUSE-Net and every neural baseline
//     (1 and 4 threads, pooled and unpooled), the accuracy gate rejects
//     and falls back to the base plan when asked for the impossible, and
//     specialized replay honors the zero-allocation contract;
// (g) lane sharding covers every sample for prime batch sizes (near-equal
//     split, not the old divisor rule that collapsed 7 samples to 1 lane).

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "baselines/registry.h"
#include "data/dataset.h"
#include "eval/forecaster.h"
#include "infer/engine.h"
#include "infer/plan.h"
#include "muse/model.h"
#include "nn/conv.h"
#include "obs/metrics.h"
#include "tensor/storage_pool.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace musenet {
namespace {

namespace ag = musenet::autograd;
namespace ts = musenet::tensor;
using musenet::util::ScopedActivePool;
using musenet::util::ThreadPool;

data::PeriodicitySpec TinySpec() {
  return data::PeriodicitySpec{.len_closeness = 2, .len_period = 2,
                               .len_trend = 1};
}

data::Batch TinyBatch(const data::PeriodicitySpec& spec, int64_t h, int64_t w,
                      uint64_t seed, int64_t batch = 2) {
  Rng rng(seed);
  data::Batch b;
  b.closeness = ts::Tensor::RandomUniform(
      ts::Shape({batch, spec.ClosenessChannels(), h, w}), rng, -1.0f, 1.0f);
  b.period = ts::Tensor::RandomUniform(
      ts::Shape({batch, spec.PeriodChannels(), h, w}), rng, -1.0f, 1.0f);
  b.trend = ts::Tensor::RandomUniform(
      ts::Shape({batch, spec.TrendChannels(), h, w}), rng, -1.0f, 1.0f);
  b.target = ts::Tensor::RandomUniform(ts::Shape({batch, 2, h, w}), rng,
                                       -1.0f, 1.0f);
  for (int64_t i = 0; i < batch; ++i) b.target_indices.push_back(200 + i);
  return b;
}

muse::MuseNetConfig TinyMuseConfig() {
  muse::MuseNetConfig config;
  config.grid_h = 3;
  config.grid_w = 4;
  config.periodicity = TinySpec();
  config.repr_dim = 4;
  config.dist_dim = 8;
  config.resplus_blocks = 1;
  return config;
}

float MaxAbsDiff(const ts::Tensor& a, const ts::Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float worst = 0.0f;
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    worst = std::max(worst, std::abs(a.flat(i) - b.flat(i)));
  }
  return worst;
}

// --- (a) Parity: planned inference vs autograd eval forward -----------------

void CheckParity(eval::Forecaster& model, const std::string& label) {
  data::Batch traced_on = TinyBatch(TinySpec(), 3, 4, 13);
  data::Batch fresh = TinyBatch(TinySpec(), 3, 4, 29);
  if (auto* module = dynamic_cast<nn::Module*>(&model)) {
    module->SetTraining(false);
  }
  const ts::Tensor ref_traced = model.Predict(traced_on);
  const ts::Tensor ref_fresh = model.Predict(fresh);

  infer::Engine engine(model);
  const ts::Tensor got_traced = engine.Predict(traced_on);
  // With a multi-threaded pool the engine shards the batch across lanes
  // instead of compiling one full-batch plan; either way it must have
  // compiled something (no model fallback).
  const int64_t bsz = traced_on.batch_size();
  ASSERT_TRUE(engine.plan_for(bsz) != nullptr ||
              engine.shard_lanes_for(bsz) > 0)
      << label << " did not compile to a plan";
  ASSERT_FALSE(engine.fallback_for(bsz)) << label;
  // Replay (warm) on the traced batch, and on a batch the plan never saw:
  // catches anything the planner wrongly baked as a constant.
  const ts::Tensor warm = engine.Predict(traced_on);
  const ts::Tensor got_fresh = engine.Predict(fresh);
  EXPECT_LE(MaxAbsDiff(got_traced, ref_traced), 1e-6f) << label;
  EXPECT_LE(MaxAbsDiff(warm, ref_traced), 1e-6f) << label;
  EXPECT_LE(MaxAbsDiff(got_fresh, ref_fresh), 1e-6f) << label;
}

TEST(InferParityTest, MuseNetAcrossThreadsAndPoolModes) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    ScopedActivePool scoped(&pool);
    for (bool pooled : {true, false}) {
      std::unique_ptr<ts::ScopedPoolDisable> disable;
      if (!pooled) disable = std::make_unique<ts::ScopedPoolDisable>();
      muse::MuseNet model(TinyMuseConfig(), 5);
      CheckParity(model, "MUSE-Net threads=" + std::to_string(threads) +
                             (pooled ? " pooled" : " unpooled"));
    }
  }
}

TEST(InferParityTest, EveryNeuralBaseline) {
  baselines::BaselineSizing sizing;
  sizing.grid_h = 3;
  sizing.grid_w = 4;
  sizing.spec = TinySpec();
  sizing.hidden = 4;
  sizing.resplus_blocks = 1;
  sizing.seed = 11;
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    ScopedActivePool scoped(&pool);
    for (const std::string& name : baselines::AllBaselineNames()) {
      if (name == "HistoricalAverage") continue;  // Unplannable; see below.
      auto model = baselines::MakeBaseline(name, sizing);
      ASSERT_NE(model, nullptr) << name;
      CheckParity(*model, name + " threads=" + std::to_string(threads));
    }
  }
}

// --- (b) Zero-allocation steady state ---------------------------------------

void CheckZeroAllocSteadyState(int threads) {
  ThreadPool pool(threads);
  ScopedActivePool scoped(&pool);
  muse::MuseNet model(TinyMuseConfig(), 5);
  infer::Engine engine(model);
  data::Batch batch = TinyBatch(TinySpec(), 3, 4, 13);

  // Warm: compile the plan, materialize the output, let the pool and the
  // worker threads settle.
  ts::Tensor out = engine.Predict(batch);
  ASSERT_TRUE(engine.PredictInto(batch, &out).ok());

  const int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.PredictInto(batch, &out).ok());
  }
  const int64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after)
      << "planned inference must not touch the heap (threads=" << threads
      << ")";
}

TEST(InferEngineTest, ZeroAllocSteadyStateSingleThread) {
  CheckZeroAllocSteadyState(1);
}

TEST(InferEngineTest, ZeroAllocSteadyStateFourThreads) {
  CheckZeroAllocSteadyState(4);
}

// --- Sharded batched execution ----------------------------------------------

TEST(InferEngineTest, ShardedBatchMatchesModelAndStaysOffTheHeap) {
  ThreadPool pool(4);
  ScopedActivePool scoped(&pool);
  muse::MuseNet model(TinyMuseConfig(), 5);
  model.SetTraining(false);
  infer::Engine engine(model);
  data::Batch batch = TinyBatch(TinySpec(), 3, 4, 13, /*batch=*/8);

  const ts::Tensor ref = model.Predict(batch);
  ts::Tensor out = engine.Predict(batch);
  EXPECT_EQ(engine.shard_lanes_for(8), 4);  // 8 samples over 4 threads.
  EXPECT_EQ(engine.shard_sizes_for(8), (std::vector<int64_t>{2, 2, 2, 2}));
  EXPECT_LE(MaxAbsDiff(out, ref), 1e-6f);

  // The sharded replay path is held to the same zero-allocation contract as
  // the single-plan path: one pool dispatch, lanes on private arenas.
  ASSERT_TRUE(engine.PredictInto(batch, &out).ok());
  const int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.PredictInto(batch, &out).ok());
  }
  EXPECT_EQ(before, g_alloc_count.load(std::memory_order_relaxed));
  EXPECT_LE(MaxAbsDiff(out, ref), 1e-6f);
}

TEST(InferEngineTest, PrimeBatchShardsAcrossAllLanesAndCoversEverySample) {
  ThreadPool pool(4);
  ScopedActivePool scoped(&pool);
  muse::MuseNet model(TinyMuseConfig(), 5);
  model.SetTraining(false);
  infer::Engine engine(model);
  data::Batch batch = TinyBatch(TinySpec(), 3, 4, 13, /*batch=*/7);

  const ts::Tensor ref = model.Predict(batch);
  const ts::Tensor out = engine.Predict(batch);
  // The old divisor rule had no lane count in (1, 7] dividing 7 and ran a
  // prime batch on a single lane; the near-equal split fans it out over all
  // four threads, first 7 mod 4 lanes one sample larger.
  EXPECT_EQ(engine.shard_lanes_for(7), 4);
  const std::vector<int64_t> sizes = engine.shard_sizes_for(7);
  EXPECT_EQ(sizes, (std::vector<int64_t>{2, 2, 2, 1}));
  int64_t covered = 0;
  for (const int64_t s : sizes) covered += s;
  EXPECT_EQ(covered, 7);
  EXPECT_LE(MaxAbsDiff(out, ref), 1e-6f);
}

TEST(InferEngineTest, SingleThreadPoolDoesNotShard) {
  ThreadPool pool(1);
  ScopedActivePool scoped(&pool);
  muse::MuseNet model(TinyMuseConfig(), 5);
  infer::Engine engine(model);
  data::Batch batch = TinyBatch(TinySpec(), 3, 4, 13, /*batch=*/8);
  engine.Predict(batch);
  EXPECT_EQ(engine.shard_lanes_for(8), 0);
  EXPECT_NE(engine.plan_for(8), nullptr);
}

TEST(InferEngineTest, PredictIntoRequiresWarmPlan) {
  muse::MuseNet model(TinyMuseConfig(), 5);
  infer::Engine engine(model);
  data::Batch batch = TinyBatch(TinySpec(), 3, 4, 13);
  ts::Tensor out(ts::Shape({2, 2, 3, 4}));
  EXPECT_FALSE(engine.PredictInto(batch, &out).ok());
}

// --- (f) Plan-time specialization --------------------------------------------

/// Builds a specializing engine over `model` and checks its output against
/// the model's own eval forward on the traced batch and on a batch the plan
/// never saw, within 1e-5. Asserts the specialized plan was actually
/// adopted (gate passed) rather than silently serving the base plan.
void CheckSpecializedParity(eval::Forecaster& model,
                            const std::string& label) {
  constexpr float tol = 1e-5f;
  data::Batch traced_on = TinyBatch(TinySpec(), 3, 4, 13);
  data::Batch fresh = TinyBatch(TinySpec(), 3, 4, 29);
  if (auto* module = dynamic_cast<nn::Module*>(&model)) {
    module->SetTraining(false);
  }
  const ts::Tensor ref_traced = model.Predict(traced_on);
  const ts::Tensor ref_fresh = model.Predict(fresh);

  infer::EngineOptions options;
  options.specialize = true;
  infer::Engine engine(model, options);
  const ts::Tensor got_traced = engine.Predict(traced_on);
  const int64_t bsz = traced_on.batch_size();
  ASSERT_FALSE(engine.fallback_for(bsz)) << label;
  ASSERT_TRUE(engine.spec_active_for(bsz)) << label << " gate rejected plan";
  EXPECT_GE(engine.spec_delta_for(bsz), 0.0f) << label;
  const ts::Tensor warm = engine.Predict(traced_on);
  const ts::Tensor got_fresh = engine.Predict(fresh);
  EXPECT_LE(MaxAbsDiff(got_traced, ref_traced), tol) << label;
  EXPECT_LE(MaxAbsDiff(warm, ref_traced), tol) << label;
  EXPECT_LE(MaxAbsDiff(got_fresh, ref_fresh), tol) << label;
}

TEST(InferSpecializeTest, Fp32FoldedPlanMatchesModelAcrossThreadsAndPools) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    ScopedActivePool scoped(&pool);
    for (bool pooled : {true, false}) {
      std::unique_ptr<ts::ScopedPoolDisable> disable;
      if (!pooled) disable = std::make_unique<ts::ScopedPoolDisable>();
      muse::MuseNet model(TinyMuseConfig(), 5);
      CheckSpecializedParity(
          model,
          "MUSE-Net spec-fp32 threads=" + std::to_string(threads) +
              (pooled ? " pooled" : " unpooled"));
    }
  }
}

TEST(InferSpecializeTest, Fp32FoldedPlanMatchesEveryNeuralBaseline) {
  baselines::BaselineSizing sizing;
  sizing.grid_h = 3;
  sizing.grid_w = 4;
  sizing.spec = TinySpec();
  sizing.hidden = 4;
  sizing.resplus_blocks = 1;
  sizing.seed = 11;
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    ScopedActivePool scoped(&pool);
    for (const std::string& name : baselines::AllBaselineNames()) {
      if (name == "HistoricalAverage") continue;  // Unplannable.
      auto model = baselines::MakeBaseline(name, sizing);
      ASSERT_NE(model, nullptr) << name;
      CheckSpecializedParity(
          *model, name + " spec-fp32 threads=" + std::to_string(threads));
    }
  }
}

TEST(InferSpecializeTest, ImpossibleGateRejectsPlanAndKeepsFp32Numerics) {
  ThreadPool pool(1);
  ScopedActivePool scoped(&pool);
  muse::MuseNet model(TinyMuseConfig(), 5);
  model.SetTraining(false);
  infer::EngineOptions options;
  options.specialize = true;
  // The one use of a non-default gate: BN folding moves this model's
  // specialized output in the last bits (a nonzero delta), so a gate of 0
  // must reject the plan.
  options.max_abs_delta = 0.0f;
  infer::Engine engine(model, options);
  data::Batch batch = TinyBatch(TinySpec(), 3, 4, 13);

  const ts::Tensor ref = model.Predict(batch);
  const ts::Tensor got = engine.Predict(batch);
  const int64_t bsz = batch.batch_size();
  EXPECT_FALSE(engine.spec_active_for(bsz));
  EXPECT_GT(engine.spec_delta_for(bsz), 0.0f);  // Attempt was measured.
  // The rejected plan is discarded; the base fp32 plan serves unchanged.
  EXPECT_LE(MaxAbsDiff(got, ref), 1e-6f);
}

TEST(InferSpecializeTest, SpecializedReplayStaysOffTheHeap) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    ScopedActivePool scoped(&pool);
    muse::MuseNet model(TinyMuseConfig(), 5);
    infer::EngineOptions options;
    options.specialize = true;
    infer::Engine engine(model, options);
    data::Batch batch = TinyBatch(TinySpec(), 3, 4, 13);

    ts::Tensor out = engine.Predict(batch);
    ASSERT_TRUE(engine.spec_active_for(batch.batch_size()));
    ASSERT_TRUE(engine.PredictInto(batch, &out).ok());

    const int64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(engine.PredictInto(batch, &out).ok());
    }
    EXPECT_EQ(before, g_alloc_count.load(std::memory_order_relaxed))
        << "specialized replay must not touch the heap (threads=" << threads
        << ")";
  }
}

// --- (c) NoGradGuard semantics ----------------------------------------------

TEST(NoGradGuardTest, SkipModeBuildsValueOnlyNodes) {
  ag::Variable a(ts::Tensor::Full(ts::Shape({2, 2}), 2.0f),
                 /*requires_grad=*/true);
  ag::Variable b(ts::Tensor::Full(ts::Shape({2, 2}), 3.0f),
                 /*requires_grad=*/true);
  ag::NoGradGuard guard(ag::NoGradGuard::Mode::kSkip);
  ag::Variable c = ag::Mul(a, b);
  EXPECT_FLOAT_EQ(c.value().flat(0), 6.0f);  // Forward math unchanged.
  EXPECT_FALSE(c.node()->requires_grad);
  EXPECT_TRUE(c.node()->inputs.empty());
}

TEST(NoGradGuardTest, EnableReArmsTracingInsideSkip) {
  ag::Variable a(ts::Tensor::Full(ts::Shape({2, 2}), 2.0f),
                 /*requires_grad=*/true);
  ag::NoGradGuard skip(ag::NoGradGuard::Mode::kSkip);
  EXPECT_TRUE(ag::NoGradGuard::Active());
  {
    ag::NoGradGuard enable(ag::NoGradGuard::Mode::kEnable);
    EXPECT_FALSE(ag::NoGradGuard::Active());
    ag::Variable c = ag::Tanh(a);
    EXPECT_TRUE(c.node()->requires_grad);
    EXPECT_EQ(c.node()->inputs.size(), 1u);
  }
  EXPECT_TRUE(ag::NoGradGuard::Active());
}

TEST(NoGradGuardDeathTest, ForbidModeMakesOpsFatal) {
  ag::Variable a(ts::Tensor::Full(ts::Shape({2, 2}), 1.0f),
                 /*requires_grad=*/false);
  EXPECT_DEATH(
      {
        ag::NoGradGuard guard(ag::NoGradGuard::Mode::kForbid);
        ag::Tanh(a);
      },
      "forbid");
}

// --- (d) Fallback for unplannable models ------------------------------------

/// A Forecaster with no traceable forward (like HistoricalAverage): keeps the
/// default empty PlanForward, so the engine must route to Predict.
class TableModel : public eval::Forecaster {
 public:
  std::string name() const override { return "TableModel"; }
  void Train(const data::TrafficDataset&, const eval::TrainConfig&) override {}
  ts::Tensor Predict(const data::Batch& batch) override {
    return ts::Tensor::Full(
        ts::Shape({batch.batch_size(), 2, batch.target.dim(2),
                   batch.target.dim(3)}),
        0.25f);
  }
};

TEST(InferEngineTest, UnplannableModelFallsBackToPredict) {
  TableModel model;
  infer::Engine engine(model);
  data::Batch batch = TinyBatch(TinySpec(), 3, 4, 13);
  const ts::Tensor got = engine.Predict(batch);
  EXPECT_LE(MaxAbsDiff(got, model.Predict(batch)), 0.0f);
  EXPECT_TRUE(engine.fallback_for(batch.batch_size()));
  EXPECT_EQ(engine.plan_for(batch.batch_size()), nullptr);
}

// --- (e) Conv2d workspace keeps eval forwards off the pool -------------------

TEST(Conv2dWorkspaceTest, RepeatedEvalForwardStopsFreshAllocations) {
  ts::StoragePool& pool = ts::StoragePool::Instance();
  if (!pool.enabled()) GTEST_SKIP() << "MUSENET_DISABLE_POOL is set";
  Rng rng(3);
  nn::Conv2d conv(4, 8, rng);
  conv.SetTraining(false);
  Rng data_rng(9);
  ag::Variable x(
      ts::Tensor::RandomUniform(ts::Shape({2, 4, 8, 8}), data_rng, -1, 1),
      /*requires_grad=*/false);
  ag::NoGradGuard no_grad(ag::NoGradGuard::Mode::kSkip);
  for (int i = 0; i < 3; ++i) conv.Forward(x);  // Warm pool + workspace.
  pool.ResetStats();
  for (int i = 0; i < 5; ++i) conv.Forward(x);
  const obs::MetricsSnapshot snap = obs::Registry::Instance().Snapshot();
  // The im2col scratch lives in the layer's workspace now; the only pool
  // traffic left is the (recycled) output buffers.
  EXPECT_EQ(snap.counters.at("tensor.pool.fresh_allocs"), 0);
}

}  // namespace
}  // namespace musenet
