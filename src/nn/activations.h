#ifndef MUSENET_NN_ACTIVATIONS_H_
#define MUSENET_NN_ACTIVATIONS_H_

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "tensor/tensor_ops.h"

namespace musenet::nn {

/// Pointwise nonlinearity selector for layers with a fused activation.
enum class Activation {
  kNone,
  kLeakyRelu,  ///< Negative slope 0.1.
  kTanh,
  kSigmoid,
};

/// Applies the selected activation (kNone returns `x` unchanged).
autograd::Variable ApplyActivation(const autograd::Variable& x,
                                   Activation activation);

/// The fused bias+activation kernel's selector for `activation`.
tensor::ActKind FusedActKind(Activation activation);

}  // namespace musenet::nn

#endif  // MUSENET_NN_ACTIVATIONS_H_
