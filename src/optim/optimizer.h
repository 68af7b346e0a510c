#ifndef MUSENET_OPTIM_OPTIMIZER_H_
#define MUSENET_OPTIM_OPTIMIZER_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "autograd/variable.h"
#include "util/status.h"

namespace musenet::optim {

/// Base class of first-order optimizers.
///
/// An optimizer holds handles to the parameter Variables (shared graph nodes,
/// so updates are visible to the model) and consumes the gradients that a
/// Backward pass accumulated into them. Parameters whose gradient was not
/// reached by the last backward pass are skipped.
class Optimizer {
 public:
  explicit Optimizer(std::vector<autograd::Variable> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update using the currently accumulated gradients.
  virtual void Step() = 0;

  /// Algorithm name ("adam"); keys checkpoint records so a resume
  /// with a different optimizer fails loudly instead of silently reusing
  /// foreign moment buffers.
  virtual std::string_view kind() const = 0;

  /// Serializes the optimizer's internal state (moment buffers, step
  /// counters) as named tensors; together with the model StateDict and RNG
  /// snapshots this makes an interrupted run bit-exactly resumable.
  virtual std::map<std::string, tensor::Tensor> StateTensors() const = 0;

  /// Restores state written by StateTensors. Validates record names and
  /// every buffer shape against the current parameter list; on mismatch the
  /// Status names the offending record and nothing is modified.
  virtual Status LoadStateTensors(
      const std::map<std::string, tensor::Tensor>& state) = 0;

  /// Clears all parameter gradients (call after Step, before next forward).
  void ZeroGrad();

  /// Current learning rate.
  double learning_rate() const { return learning_rate_; }
  void set_learning_rate(double lr) { learning_rate_ = lr; }

  const std::vector<autograd::Variable>& params() const { return params_; }

 protected:
  std::vector<autograd::Variable> params_;
  double learning_rate_ = 1e-3;
};

/// Scales all gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clipping norm. No-op (returns the norm) when already
/// within bounds or when no parameter has a gradient.
double ClipGradNorm(const std::vector<autograd::Variable>& params,
                    double max_norm);

/// Scans every parameter gradient for NaN/Inf. Returns OK when all finite;
/// otherwise an Internal status naming the first offending parameter index,
/// its non-finite element count and the flat index of the first bad element
/// — the diagnostics the training loop's FailurePolicy surfaces.
Status CheckGradsFinite(const std::vector<autograd::Variable>& params);

/// One shard's gradient contributions, indexed like the parameter list.
/// `present[i]` is non-zero when the shard's backward pass reached parameter
/// i (a parameter untouched by every shard ends up without a gradient, just
/// as in single-stream training).
struct ShardGradients {
  std::vector<tensor::Tensor> grads;
  std::vector<uint8_t> present;
};

/// Combines per-shard gradients into each parameter's accumulator with a
/// fixed-topology binary tree over the shard index:
///
///   for stride = 1, 2, 4, ...:  grads[i] += grads[i + stride]
///
/// and installs the shard-0 result as the parameter's gradient. The tree
/// shape depends only on the shard count, and each parameter's reduction
/// runs entirely inside one ParallelFor chunk, so the result is bit-exact
/// for a given shard count regardless of thread count. Consumes the shard
/// buffers. Parameter gradient accumulators must be clear on entry
/// (ZeroGrad), as after a fresh backward pass.
void ReduceShardGradients(const std::vector<autograd::Variable>& params,
                          std::vector<ShardGradients>* shards);

/// "m/0007"-style record name for per-parameter optimizer state slots.
std::string SlotRecordName(std::string_view slot, size_t index);

/// Writes one tensor per parameter into `out` under SlotRecordName keys.
void SaveSlotTensors(std::string_view slot,
                     const std::vector<tensor::Tensor>& buffers,
                     std::map<std::string, tensor::Tensor>* out);

/// Reads back a SaveSlotTensors record set, validating that every record is
/// present with the matching parameter shape. `out` is only modified on
/// success.
Status LoadSlotTensors(const std::map<std::string, tensor::Tensor>& state,
                       std::string_view slot,
                       const std::vector<autograd::Variable>& params,
                       std::vector<tensor::Tensor>* out);

}  // namespace musenet::optim

#endif  // MUSENET_OPTIM_OPTIMIZER_H_
