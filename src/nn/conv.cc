#include "nn/conv.h"

#include <memory>

#include "nn/init.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/shard_context.h"

namespace musenet::nn {

namespace ag = musenet::autograd;

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, Rng& rng)
    : Conv2d(in_channels, out_channels, rng, Options{}) {}

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, Rng& rng,
               Options options)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      options_(options) {
  MUSE_CHECK_GT(in_channels, 0);
  MUSE_CHECK_GT(out_channels, 0);
  MUSE_CHECK_GE(options_.kernel, 1);
  if (options_.pad < 0) {
    MUSE_CHECK_EQ(options_.kernel % 2, 1)
        << "'same' padding requires an odd kernel";
    options_.pad = (options_.kernel - 1) / 2;
  }
  spec_ = tensor::Conv2dSpec{.stride = options_.stride, .pad = options_.pad};

  int64_t fan_in = 0;
  int64_t fan_out = 0;
  ConvFans(out_channels, in_channels, options_.kernel, options_.kernel,
           &fan_in, &fan_out);
  tensor::Tensor init_weight =
      GlorotUniform(tensor::Shape({out_channels, in_channels, options_.kernel,
                                   options_.kernel}),
                    fan_in, fan_out, rng);
  if (options_.init_scale != 1.0f) {
    init_weight = tensor::MulScalar(init_weight, options_.init_scale);
  }
  weight_ = RegisterParameter("weight", std::move(init_weight));
  if (options_.batch_norm) {
    options_.use_bias = false;  // BN's β subsumes the conv bias.
    batch_norm_ = std::make_unique<BatchNorm2d>(out_channels);
    RegisterSubmodule("bn", batch_norm_.get());
  }
  if (options_.use_bias) {
    bias_ = RegisterParameter(
        "bias", tensor::Tensor::Zeros(tensor::Shape({out_channels})));
  }
}

ag::Variable Conv2d::Forward(const ag::Variable& x) {
  MUSE_CHECK_EQ(x.value().rank(), 4);
  MUSE_CHECK_EQ(x.value().dim(1), in_channels_);
  // The member workspace is single-caller scratch; concurrent data-parallel
  // shard forwards each use a per-(shard, layer) workspace owned by the
  // shard context, which outlives the shard's backward pass (whose closures
  // capture the workspace pointer).
  tensor::Conv2dWorkspace* workspace = &workspace_;
  if (util::ShardContext* shard = util::ShardContext::Current()) {
    std::shared_ptr<void>& slot = shard->ScratchSlot(this);
    if (slot == nullptr) slot = std::make_shared<tensor::Conv2dWorkspace>();
    workspace = static_cast<tensor::Conv2dWorkspace*>(slot.get());
  }
  ag::Variable y = ag::Conv2d(x, weight_, spec_, workspace);
  if (options_.use_bias) {
    // [Cout] → [1,Cout,1,1] broadcasts over batch and space. use_bias
    // implies no batch norm (the ctor clears it), so the activation fuses
    // into the same node.
    ag::Variable b =
        ag::Reshape(bias_, tensor::Shape({1, out_channels_, 1, 1}));
    return ag::BiasActivation(y, b, FusedActKind(options_.activation));
  }
  if (batch_norm_ != nullptr) y = batch_norm_->Forward(y);
  return ApplyActivation(y, options_.activation);
}

}  // namespace musenet::nn
