#ifndef MUSENET_NN_MODULE_H_
#define MUSENET_NN_MODULE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "util/rng.h"
#include "util/status.h"

namespace musenet::nn {

/// Base class for neural-network building blocks.
///
/// A Module owns trainable parameters (registered in the constructor via
/// RegisterParameter) and may contain sub-modules (data members registered
/// via RegisterSubmodule; the parent does not own them — they are ordinary
/// members whose lifetime the parent already controls). Parameter traversal,
/// zero-grad, train/eval mode and state-dict (de)serialization all recurse
/// through the registration lists.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  // Registration stores `this`-relative pointers, so modules are not
  // copyable or movable.
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters, depth-first, with dotted path names
  /// ("encoder.conv1.weight").
  std::vector<std::pair<std::string, autograd::Variable>> NamedParameters()
      const;

  /// All trainable parameters, depth-first.
  std::vector<autograd::Variable> Parameters() const;

  /// Clears gradient accumulators of every parameter.
  void ZeroGrad();

  /// Total number of trainable scalars.
  int64_t NumParameters() const;

  /// Copies every parameter and buffer tensor into a name→tensor map
  /// (checkpointing). Buffers (e.g. BatchNorm running statistics) are
  /// non-trainable state that must travel with the weights.
  std::map<std::string, tensor::Tensor> StateDict() const;

  /// Loads parameter and buffer tensors by name. Every entry must be present
  /// with a matching shape; extra entries in `state` are an error. On
  /// failure the Status message enumerates exactly which names are missing,
  /// extra, or shape-mismatched (with both shapes), so a checkpoint/model
  /// mismatch is diagnosable from the error alone. The model is only
  /// modified when validation passes — a failed load never leaves it half
  /// loaded.
  Status LoadStateDict(const std::map<std::string, tensor::Tensor>& state);

  /// RNG streams that advance while the model trains (reparameterization
  /// noise, augmentation masks), with dotted path names, depth-first. The
  /// training runtime checkpoints these alongside the weights so a resumed
  /// run replays the exact noise sequence of an uninterrupted one.
  std::vector<std::pair<std::string, Rng*>> NamedRngs() const;

  /// Train/eval mode (affects BatchNorm); recurses into sub-modules.
  void SetTraining(bool training);
  bool training() const { return training_; }

 protected:
  /// Creates and registers a trainable parameter initialized to `init`.
  autograd::Variable RegisterParameter(std::string name, tensor::Tensor init);

  /// Registers a child for recursive traversal. `child` must outlive `this`
  /// (it is normally a data member).
  void RegisterSubmodule(std::string name, Module* child);

  /// Registers non-trainable state included in StateDict (e.g. running
  /// statistics). `buffer` must outlive `this` (normally a data member).
  void RegisterBuffer(std::string name, tensor::Tensor* buffer);

  /// Registers an RNG stream consumed during training (surfaced by
  /// NamedRngs for checkpointing). `rng` must outlive `this` (normally a
  /// data member). Init-only RNGs, fully drained in the constructor, need
  /// not be registered.
  void RegisterRng(std::string name, Rng* rng);

 private:
  void CollectNamedParameters(
      const std::string& prefix,
      std::vector<std::pair<std::string, autograd::Variable>>* out) const;
  void CollectNamedBuffers(
      const std::string& prefix,
      std::vector<std::pair<std::string, tensor::Tensor*>>* out) const;
  void CollectNamedRngs(const std::string& prefix,
                        std::vector<std::pair<std::string, Rng*>>* out) const;

  std::vector<std::pair<std::string, autograd::Variable>> params_;
  std::vector<std::pair<std::string, tensor::Tensor*>> buffers_;
  std::vector<std::pair<std::string, Rng*>> rngs_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
};

}  // namespace musenet::nn

#endif  // MUSENET_NN_MODULE_H_
