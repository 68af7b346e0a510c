#include "nn/activations.h"

#include "util/check.h"

namespace musenet::nn {

autograd::Variable ApplyActivation(const autograd::Variable& x,
                                   Activation activation) {
  switch (activation) {
    case Activation::kNone:
      return x;
    case Activation::kLeakyRelu:
      return autograd::LeakyRelu(x, 0.1f);
    case Activation::kTanh:
      return autograd::Tanh(x);
    case Activation::kSigmoid:
      return autograd::Sigmoid(x);
  }
  MUSE_CHECK(false) << "unreachable activation";
  return x;
}

tensor::ActKind FusedActKind(Activation activation) {
  switch (activation) {
    case Activation::kNone:
      return tensor::ActKind::kIdentity;
    case Activation::kLeakyRelu:
      return tensor::ActKind::kLeakyRelu;
    case Activation::kTanh:
      return tensor::ActKind::kTanh;
    case Activation::kSigmoid:
      return tensor::ActKind::kSigmoid;
  }
  MUSE_CHECK(false) << "unreachable activation";
  return tensor::ActKind::kIdentity;
}

}  // namespace musenet::nn
