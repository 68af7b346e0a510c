#ifndef MUSENET_NN_DENSE_H_
#define MUSENET_NN_DENSE_H_

#include "nn/activations.h"
#include "nn/module.h"
#include "util/rng.h"

namespace musenet::nn {

/// Fully connected layer: y = act(x W + b), x:[B,in] → y:[B,out].
class Dense : public Module {
 public:
  /// Weight is Glorot-uniform initialized; bias (optional) starts at zero.
  Dense(int64_t in_features, int64_t out_features, Rng& rng,
        Activation activation = Activation::kNone, bool use_bias = true);

  autograd::Variable Forward(const autograd::Variable& x);

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Activation activation_;
  bool use_bias_;
  autograd::Variable weight_;  ///< [in, out].
  autograd::Variable bias_;    ///< [out] (undefined when !use_bias_).
};

}  // namespace musenet::nn

#endif  // MUSENET_NN_DENSE_H_
