#include "nn/dense.h"

#include "nn/init.h"
#include "util/check.h"

namespace musenet::nn {

namespace ag = musenet::autograd;

Dense::Dense(int64_t in_features, int64_t out_features, Rng& rng,
             Activation activation, bool use_bias)
    : in_features_(in_features),
      out_features_(out_features),
      activation_(activation),
      use_bias_(use_bias) {
  MUSE_CHECK_GT(in_features, 0);
  MUSE_CHECK_GT(out_features, 0);
  int64_t fan_in = 0;
  int64_t fan_out = 0;
  DenseFans(in_features, out_features, &fan_in, &fan_out);
  weight_ = RegisterParameter(
      "weight",
      GlorotUniform(tensor::Shape({in_features, out_features}), fan_in,
                    fan_out, rng));
  if (use_bias_) {
    bias_ = RegisterParameter(
        "bias", tensor::Tensor::Zeros(tensor::Shape({out_features})));
  }
}

ag::Variable Dense::Forward(const ag::Variable& x) {
  MUSE_CHECK_EQ(x.value().rank(), 2);
  MUSE_CHECK_EQ(x.value().dim(1), in_features_);
  ag::Variable y = ag::MatMul(x, weight_);
  if (use_bias_) {
    // One node/kernel for bias + activation; [B,out] + [out] broadcasts.
    return ag::BiasActivation(y, bias_, FusedActKind(activation_));
  }
  return ApplyActivation(y, activation_);
}

}  // namespace musenet::nn
