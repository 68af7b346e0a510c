// Fused/in-place elementwise kernels for the training hot path.
//
// Every kernel here replaces a chain of two or more tensor_ops kernels and
// must produce bit-identical results to the chain it replaces: same scalar
// operations, same order, one rounding per original kernel boundary. This
// file is therefore compiled with -ffp-contract=off (see CMakeLists.txt) —
// otherwise the compiler could fuse e.g. `g * (1 - out*out)` into FMA forms
// that round differently from the separate Square/Sub/Mul kernels they
// mirror.

#include <cmath>

#include "tensor/kernel_util.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace musenet::tensor {

void AddInPlace(Tensor& a, const Tensor& b) {
  MUSE_CHECK(a.shape() == b.shape())
      << "AddInPlace shape mismatch: " << a.shape().ToString() << " vs "
      << b.shape().ToString();
  float* pa = a.mutable_data();
  const float* pb = b.data();
  MaybeParallelFor(a.num_elements(), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pa[i] += pb[i];
  });
}

Tensor MulAdd(const Tensor& a, const Tensor& b, const Tensor& c) {
  MUSE_CHECK(a.shape() == b.shape() && b.shape() == c.shape())
      << "MulAdd shape mismatch: " << a.shape().ToString() << ", "
      << b.shape().ToString() << ", " << c.shape().ToString();
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  const float* pc = c.data();
  float* po = out.mutable_data();
  MaybeParallelFor(a.num_elements(), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float prod = pb[i] * pc[i];
      po[i] = pa[i] + prod;
    }
  });
  return out;
}

namespace {

/// Decomposes a bias broadcast into (channels, inner): element i of `x`
/// pairs with bias element (i / inner) % channels. Requires the bias to
/// have at most one non-unit axis, aligned against `x` from the trailing
/// side (NumPy rules) — e.g. [C] against [B,C] or [1,C,1,1] against
/// [B,C,H,W].
void BiasLayout(const Shape& x, const Shape& bias, int64_t* channels,
                int64_t* inner) {
  MUSE_CHECK_LE(bias.rank(), x.rank())
      << "BiasAct: bias rank exceeds input rank";
  const int offset = x.rank() - bias.rank();
  *channels = 1;
  *inner = 1;
  int non_unit_axis = -1;
  for (int axis = 0; axis < bias.rank(); ++axis) {
    MUSE_CHECK(bias.dim(axis) == 1 || bias.dim(axis) == x.dim(offset + axis))
        << "BiasAct: bias " << bias.ToString() << " does not broadcast "
        << "against " << x.ToString();
    if (bias.dim(axis) != 1) {
      MUSE_CHECK_LT(non_unit_axis, 0)
          << "BiasAct: bias " << bias.ToString()
          << " has more than one non-unit axis";
      non_unit_axis = axis;
    }
  }
  if (non_unit_axis < 0) return;
  *channels = bias.dim(non_unit_axis);
  for (int axis = offset + non_unit_axis + 1; axis < x.rank(); ++axis) {
    *inner *= x.dim(axis);
  }
}

template <typename Fn>
Tensor BiasActImpl(const Tensor& x, const Tensor& bias, Fn act) {
  int64_t channels = 0;
  int64_t inner = 0;
  BiasLayout(x.shape(), bias.shape(), &channels, &inner);
  Tensor out = Tensor::Uninitialized(x.shape());
  const float* px = x.data();
  const float* pb = bias.data();
  float* po = out.mutable_data();
  MaybeParallelFor(x.num_elements(), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float pre = px[i] + pb[(i / inner) % channels];
      po[i] = act(pre);
    }
  });
  return out;
}

template <typename Fn>
Tensor ActBackwardImpl(const Tensor& g, const Tensor& out, Fn dact) {
  MUSE_CHECK(g.shape() == out.shape())
      << "ActBackwardFromOutput shape mismatch";
  Tensor result = Tensor::Uninitialized(g.shape());
  const float* pg = g.data();
  const float* po = out.data();
  float* pr = result.mutable_data();
  MaybeParallelFor(g.num_elements(), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pr[i] = dact(pg[i], po[i]);
  });
  return result;
}

}  // namespace

Tensor BiasAct(const Tensor& x, const Tensor& bias, ActKind act,
               float alpha) {
  switch (act) {
    case ActKind::kIdentity:
      return BiasActImpl(x, bias, [](float v) { return v; });
    case ActKind::kLeakyRelu:
      return BiasActImpl(
          x, bias, [alpha](float v) { return v > 0.0f ? v : alpha * v; });
    case ActKind::kTanh:
      return BiasActImpl(x, bias, [](float v) { return std::tanh(v); });
    case ActKind::kSigmoid:
      return BiasActImpl(x, bias, [](float v) { return SigmoidScalar(v); });
  }
  MUSE_CHECK(false) << "unreachable ActKind";
  return x;
}

Tensor ActBackwardFromOutput(const Tensor& g, const Tensor& out, ActKind act,
                             float alpha) {
  switch (act) {
    case ActKind::kIdentity:
      return ActBackwardImpl(g, out, [](float gv, float) { return gv; });
    case ActKind::kLeakyRelu:
      return ActBackwardImpl(g, out, [alpha](float gv, float ov) {
        return ov > 0.0f ? gv : alpha * gv;
      });
    case ActKind::kTanh:
      // g · (1 − out²), rounded exactly like the Square → Sub → Mul chain.
      return ActBackwardImpl(g, out, [](float gv, float ov) {
        const float sq = ov * ov;
        const float one_minus = 1.0f - sq;
        return gv * one_minus;
      });
    case ActKind::kSigmoid:
      // g · out · (1 − out), rounded exactly like Sub → Mul → Mul.
      return ActBackwardImpl(g, out, [](float gv, float ov) {
        const float one_minus = 1.0f - ov;
        const float deriv = ov * one_minus;
        return gv * deriv;
      });
  }
  MUSE_CHECK(false) << "unreachable ActKind";
  return g;
}

Tensor SquareBackward(const Tensor& g, const Tensor& x) {
  MUSE_CHECK(g.shape() == x.shape()) << "SquareBackward shape mismatch";
  Tensor result = Tensor::Uninitialized(g.shape());
  const float* pg = g.data();
  const float* px = x.data();
  float* pr = result.mutable_data();
  MaybeParallelFor(g.num_elements(), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float two_x = px[i] * 2.0f;
      pr[i] = pg[i] * two_x;
    }
  });
  return result;
}

}  // namespace musenet::tensor
