#ifndef MUSENET_NN_BATCH_NORM_H_
#define MUSENET_NN_BATCH_NORM_H_

#include "nn/module.h"

namespace musenet::nn {

/// Batch normalization over [B, C, H, W] inputs, per channel (Ioffe &
/// Szegedy 2015). DeepSTN+ — and therefore MUSE-Net's spatial head — relies
/// on BN to keep activations centred; without it the tanh prediction head
/// saturates on the heavily skewed [-1,1]-scaled flow targets.
///
/// Training mode normalizes with batch statistics (differentiable through
/// mean/var) and updates running statistics; eval mode uses the running
/// statistics as constants. Running stats are registered as buffers, so they
/// travel with StateDict checkpoints.
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(int64_t channels, double momentum = 0.1,
                       float epsilon = 1e-5f);

  autograd::Variable Forward(const autograd::Variable& x);

  int64_t channels() const { return channels_; }
  const tensor::Tensor& running_mean() const { return running_mean_; }
  const tensor::Tensor& running_var() const { return running_var_; }

 private:
  int64_t channels_;
  double momentum_;
  float epsilon_;
  autograd::Variable gamma_;     ///< [1, C, 1, 1], ones.
  autograd::Variable beta_;      ///< [1, C, 1, 1], zeros.
  tensor::Tensor running_mean_;  ///< [1, C, 1, 1] buffer.
  tensor::Tensor running_var_;   ///< [1, C, 1, 1] buffer, starts at 1.
};

}  // namespace musenet::nn

#endif  // MUSENET_NN_BATCH_NORM_H_
