#ifndef MUSENET_INFER_ENGINE_H_
#define MUSENET_INFER_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "eval/forecaster.h"
#include "infer/plan.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace musenet::obs {
class Counter;
}  // namespace musenet::obs

namespace musenet::infer {

/// Graph-free inference engine over a forecaster.
///
/// The first Predict at a given batch size traces the model's eval-mode
/// forward once (PlanForward), compiles it to a static Plan, and sizes a
/// private arena for it. Every later run at that batch size replays the flat
/// step list under a forbid-mode autograd::NoGradGuard — building a graph
/// node inside the engine is a hard error — and performs zero heap
/// allocations (see PredictInto). Weight pointers are re-resolved from the
/// traced parameter nodes on every run, so optimizer steps and
/// LoadStateDict take effect without replanning; structural changes require
/// InvalidatePlans().
///
/// Models whose PlanForward returns an empty Variable (HistoricalAverage) or
/// whose graph contains an op outside the planner's kind set fall back to
/// the model's own Predict, so the engine is safe to wrap around any
/// Forecaster.
///
/// Batched requests scale across threads by sharding, not by intra-op
/// parallelism: at serving tensor sizes a per-op ParallelFor dispatch costs
/// more than the op itself, so a batch of n is split into
/// lanes = min(n, threads) near-equal shards (sizes differ by at most one —
/// the first n mod lanes lanes take the extra sample, so prime batch sizes
/// still fan out), each lane replaying a shard-sized plan sequentially on
/// its own private arena — one pool dispatch per inference instead of one
/// per op. Sharding assumes the eval forward treats axis 0 as a pure batch
/// axis (true for every model here: eval-mode BN uses running stats and no
/// op reduces across samples). The assumption is not trusted: the first
/// sharded run at a batch size is validated at plan build time (against the
/// model's own Predict, or against the engine's full-batch plan when
/// specialization is active, since specialized numerics legitimately differ
/// from the model's), and on mismatch the engine permanently falls back to the
/// unsharded full-batch plan for that size.
///
/// Plan-time specialization (EngineOptions::specialize) runs SpecializePlan
/// on every freshly built plan — BN/affine chains folded into weights,
/// weights repacked into GEMM tiles — then gates adoption on
/// max |specialized − base| over the planning batch. A plan that fails the
/// gate is discarded and the base plan serves instead (counter
/// infer.engine.spec_rejected). Specialization bakes the weights
/// into the plan: unlike base plans, in-place weight updates are NOT picked
/// up until InvalidatePlans() (EngineForecaster::Train does this).
struct EngineOptions {
  /// Run SpecializePlan on every built plan and adopt it when it passes the
  /// accuracy gate.
  bool specialize = false;
  /// Accuracy gate: max allowed |specialized − base| element delta on the
  /// planning batch, in scaled-output units. Repacking is bit-exact and BN
  /// folding perturbs only at fp32 rounding scale, so 1e-4 leaves a wide
  /// margin; tests lower it to force a rejection. The serving registry's
  /// shadow validation holds each tenant's candidates to the same value, so
  /// a hot-swapped plan meets the budget of a locally built one.
  float max_abs_delta = 1e-4f;
};

class Engine {
 public:
  explicit Engine(eval::Forecaster& model, EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Planned prediction for `batch`; plans lazily on first use per batch
  /// size. Falls back to `model.Predict` when the model is not plannable.
  tensor::Tensor Predict(const data::Batch& batch);

  /// Zero-allocation planned prediction into a caller-owned tensor. Requires
  /// a warm plan for this batch size (a prior Predict) and `out` already
  /// materialized at the plan's output shape; fails with FailedPrecondition
  /// otherwise instead of silently allocating.
  Status PredictInto(const data::Batch& batch, tensor::Tensor* out);

  /// Drops all compiled plans (e.g. after structural model changes or
  /// further training with a different architecture). Plans rebuild lazily.
  void InvalidatePlans();

  /// Plan compiled for `batch_size`, or nullptr (not yet built / fallback).
  const Plan* plan_for(int64_t batch_size) const;

  /// Number of shard lanes serving `batch_size`, or 0 when that size runs
  /// unsharded (full-batch plan, fallback, or not yet built).
  int64_t shard_lanes_for(int64_t batch_size) const;

  /// Per-lane shard sizes for `batch_size` (empty when unsharded). Sizes
  /// are near-equal (differ by at most one) and sum to the batch size.
  std::vector<int64_t> shard_sizes_for(int64_t batch_size) const;

  /// True when the last Predict at this batch size used the model fallback.
  bool fallback_for(int64_t batch_size) const;

  /// True when the plan serving `batch_size` is a specialized plan that
  /// passed the accuracy gate (for shards: the first-built lane).
  bool spec_active_for(int64_t batch_size) const;

  /// Accuracy-gate delta measured for `batch_size` at plan build
  /// (max |specialized − base| over the planning batch), or -1 when no
  /// specialization was attempted at that size.
  float spec_delta_for(int64_t batch_size) const;

  /// Trace-correlation id attached as a "rid" arg to the infer.run /
  /// infer.run.sharded spans of subsequent Predicts (-1 = none, the
  /// default). Set by the serving dispatcher before each batch replay; one
  /// dispatcher drives a tenant's engine, so a plain atomic is enough and
  /// the replay path stays zero-alloc (the rid is an int64 span arg — no
  /// formatting, nothing per-lane beyond a relaxed load).
  void set_trace_request_id(int64_t rid) {
    trace_rid_.store(rid, std::memory_order_relaxed);
  }

 private:
  struct PlanInstance {
    Plan plan;
    std::vector<float> arena;
    std::vector<float*> ptrs;  ///< Resolved per run; sized to plan.buffers.
  };

  /// Independent replay lanes for one batch size: lane i computes the
  /// samples [offsets[i], offsets[i] + sizes[i]) on its own plan instance
  /// and arena.
  struct ShardSet {
    std::vector<int64_t> sizes;    ///< Near-equal per-lane batch sizes.
    std::vector<int64_t> offsets;  ///< Sample offset of each lane.
    tensor::Shape out_shape;       ///< Full-batch prediction shape.
    std::vector<PlanInstance> lanes;
  };

  /// Traces + compiles a plan for `batch` into `inst` (specializing it when
  /// options_.specialize and the accuracy gate passes). False when the
  /// model is unplannable at this shape (caller decides how to fall back).
  bool BuildInstance(const data::Batch& batch, PlanInstance* inst);

  /// Sizes inst->arena and resolves the build-time-stable pointers (arena,
  /// constants) for inst->plan.
  static void FinalizeInstance(PlanInstance* inst);

  /// Returns the instance for the batch's size, building it on first use.
  /// nullptr means "use the model fallback" (also cached).
  PlanInstance* GetOrBuild(const data::Batch& batch);

  /// Returns the shard set for the batch's size, building (and validating)
  /// it on first use. nullptr means "run unsharded": single-threaded pool,
  /// indivisible batch, unplannable model, or failed validation.
  ShardSet* GetOrBuildShards(const data::Batch& batch);

  /// Replays the step list into `out` (the plan's output storage).
  void Run(PlanInstance& inst, const data::Batch& batch, float* out);

  /// Core replay: refreshes the pointer table from `inputs` (per-sample
  /// base pointers for closeness/period/trend) and executes the steps.
  void RunWithInputs(PlanInstance& inst, const float* const inputs[3],
                     float* out);

  /// Replays every lane of `set` across the active pool (one dispatch).
  void RunSharded(ShardSet& set, const data::Batch& batch, float* out);

  /// Near-equal lane sizes: min(batch_size, threads) lanes, the first
  /// batch_size mod lanes of them one sample larger. Empty = don't shard.
  static std::vector<int64_t> PickLaneSizes(int64_t batch_size,
                                            int64_t threads);

  eval::Forecaster& model_;
  EngineOptions options_;
  mutable std::mutex mu_;
  std::map<int64_t, PlanInstance> plans_;
  std::map<int64_t, ShardSet> shard_sets_;
  std::map<int64_t, bool> fallback_;  ///< Batch sizes that are unplannable.
  std::map<int64_t, bool> shard_fallback_;  ///< Failed shard validation.
  std::map<int64_t, bool> spec_active_;   ///< Specialized plan adopted.
  std::map<int64_t, float> spec_delta_;   ///< Gate delta per batch size.
  std::atomic<int64_t> trace_rid_{-1};  ///< See set_trace_request_id.
  obs::Counter* runs_;                ///< infer.engine.runs
  obs::Counter* sharded_runs_;        ///< infer.engine.sharded_runs
  obs::Counter* fallbacks_;           ///< infer.engine.fallbacks
  obs::Counter* spec_builds_;         ///< infer.engine.spec_builds
  obs::Counter* spec_rejects_;        ///< infer.engine.spec_rejected
};

/// Drop-in Forecaster that routes Predict through an Engine while delegating
/// everything else to the wrapped model. Train invalidates compiled plans
/// (training may be preceded by architecture-affecting setup); weight-only
/// updates would not have required it, but retraining is rare and replanning
/// is one forward pass.
class EngineForecaster : public eval::Forecaster {
 public:
  explicit EngineForecaster(eval::Forecaster& inner,
                            EngineOptions options = {})
      : inner_(inner), engine_(inner, options) {}

  std::string name() const override { return inner_.name(); }

  void Train(const data::TrafficDataset& dataset,
             const eval::TrainConfig& config) override {
    inner_.Train(dataset, config);
    engine_.InvalidatePlans();
  }

  tensor::Tensor Predict(const data::Batch& batch) override {
    return engine_.Predict(batch);
  }

  autograd::Variable PlanForward(const data::Batch& batch) override {
    return inner_.PlanForward(batch);
  }

  Engine& engine() { return engine_; }

 private:
  eval::Forecaster& inner_;
  Engine engine_;
};

}  // namespace musenet::infer

#endif  // MUSENET_INFER_ENGINE_H_
