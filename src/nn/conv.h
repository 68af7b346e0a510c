#ifndef MUSENET_NN_CONV_H_
#define MUSENET_NN_CONV_H_

#include <memory>

#include "nn/activations.h"
#include "nn/batch_norm.h"
#include "nn/module.h"
#include "tensor/conv2d.h"
#include "util/rng.h"

namespace musenet::nn {

/// 2-D convolution layer with square kernel, stride 1 and "same" padding by
/// default (the configuration used throughout MUSE-Net / DeepSTN+).
///
/// Input [B, Cin, H, W] → output [B, Cout, H', W'].
class Conv2d : public Module {
 public:
  struct Options {
    int64_t kernel = 3;
    int64_t stride = 1;
    /// −1 requests "same" padding: (kernel − 1) / 2, valid for odd kernels.
    int64_t pad = -1;
    Activation activation = Activation::kNone;
    bool use_bias = true;
    /// Inserts BatchNorm2d between the convolution and the activation
    /// (conv bias is dropped — BN's β subsumes it).
    bool batch_norm = false;
    /// Multiplier on the Glorot init range. Output layers feeding a
    /// saturating activation (tanh prediction heads) should use a small
    /// scale (e.g. 0.1) so no unit starts near saturation, where the
    /// vanishing gradient would leave it permanently stuck.
    float init_scale = 1.0f;
  };

  Conv2d(int64_t in_channels, int64_t out_channels, Rng& rng,
         Options options);
  /// Defaults: 3×3 kernel, stride 1, "same" padding, no activation, bias.
  Conv2d(int64_t in_channels, int64_t out_channels, Rng& rng);

  autograd::Variable Forward(const autograd::Variable& x);

  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }

 private:
  int64_t in_channels_;
  int64_t out_channels_;
  Options options_;
  tensor::Conv2dSpec spec_;
  autograd::Variable weight_;  ///< [Cout, Cin, k, k].
  autograd::Variable bias_;    ///< [Cout] reshaped to [1,Cout,1,1] on use.
  std::unique_ptr<BatchNorm2d> batch_norm_;  ///< When options_.batch_norm.
  /// im2col scratch reused across calls (grows to the largest input shape
  /// seen); the layer outlives every graph built from it.
  tensor::Conv2dWorkspace workspace_;
};

}  // namespace musenet::nn

#endif  // MUSENET_NN_CONV_H_
