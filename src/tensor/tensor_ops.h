#ifndef MUSENET_TENSOR_TENSOR_OPS_H_
#define MUSENET_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace musenet::tensor {

// Kernel layer: raw, non-differentiable tensor math. The autograd layer
// (src/autograd) composes these kernels into differentiable ops. All
// functions allocate fresh outputs (recycled through the storage pool) and
// validate shapes with MUSE_CHECK, except the explicitly in-place kernels
// below.

// --- Elementwise binary (NumPy-style broadcasting) --------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
/// Elementwise quotient; division by zero follows IEEE semantics (±inf/NaN).
Tensor Div(const Tensor& a, const Tensor& b);

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

// --- In-place / fused -------------------------------------------------------

/// a += b elementwise; shapes must match exactly. Element order and rounding
/// are identical to `a = Add(a, b)` without the fresh allocation (the
/// gradient-accumulation hot path).
void AddInPlace(Tensor& a, const Tensor& b);

/// a + b ⊙ c in one pass; all three shapes must match exactly. Bit-identical
/// to Add(a, Mul(b, c)).
Tensor MulAdd(const Tensor& a, const Tensor& b, const Tensor& c);

/// Activation selector for the fused bias+activation kernels; one value per
/// nn::Activation. Each derivative is expressible from the activation
/// output alone.
enum class ActKind { kIdentity, kLeakyRelu, kTanh, kSigmoid };

/// act(x + bias) in one pass. `bias` must broadcast against `x` with at most
/// one non-unit axis (e.g. [C] against [B,C], or [1,C,1,1] against
/// [B,C,H,W]). Bit-identical to the unfused Add + activation composition.
Tensor BiasAct(const Tensor& x, const Tensor& bias, ActKind act,
               float alpha = 0.1f);

/// g ⊙ act'(out) where `out` is the activation's output — the fused backward
/// for BiasAct and for the plain activations, bit-identical to the unfused
/// derivative chains (e.g. g·(1 − out²) for tanh).
Tensor ActBackwardFromOutput(const Tensor& g, const Tensor& out, ActKind act,
                             float alpha = 0.1f);

/// g ⊙ 2x in one pass — the Square backward, bit-identical to
/// Mul(g, MulScalar(x, 2)).
Tensor SquareBackward(const Tensor& g, const Tensor& x);

// --- Elementwise unary -------------------------------------------------------

Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Tanh(const Tensor& a);
/// max(x, alpha·x) with alpha in (0,1): a rectifier that keeps a small
/// negative slope so units cannot die.
Tensor LeakyRelu(const Tensor& a, float alpha = 0.1f);
Tensor Sigmoid(const Tensor& a);
Tensor Square(const Tensor& a);
/// Clamps every element into [lo, hi].
Tensor Clamp(const Tensor& a, float lo, float hi);

// --- Reductions --------------------------------------------------------------

/// Sum of all elements as a rank-0 tensor.
Tensor SumAll(const Tensor& a);
/// Mean of all elements as a rank-0 tensor.
Tensor MeanAll(const Tensor& a);
float MaxValue(const Tensor& a);
float MinValue(const Tensor& a);

/// Number of NaN/Inf elements, and the flat index of the first one (-1 when
/// clean). Parallel over fixed chunks, so the count is thread-count
/// invariant; the numeric-health guards in the training loop run this over
/// the loss and every gradient each step, so the scan stays cheap (one pass,
/// no allocation beyond the per-chunk partials).
struct NonFiniteReport {
  int64_t count = 0;
  int64_t first_index = -1;
};
NonFiniteReport CountNonFinite(const Tensor& a);

/// Sum along `axis`. With keepdims the reduced axis stays as size 1;
/// otherwise it is removed (a fully reduced tensor becomes rank-0).
Tensor Sum(const Tensor& a, int axis, bool keepdims = false);
Tensor Mean(const Tensor& a, int axis, bool keepdims = false);

/// Sums `t` down to `target` shape by reducing the axes that broadcasting
/// expanded. This is the adjoint of broadcasting and is used by every
/// broadcast-aware backward pass. `target` must be broadcast-compatible with
/// (and no larger than) `t.shape()`.
Tensor ReduceToShape(const Tensor& t, const Shape& target);

// --- Linear algebra ----------------------------------------------------------

/// [m,k] × [k,n] → [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);
/// [m,k] × [n,k]ᵀ → [m,n]. Reads `b` through strides instead of
/// materializing the transpose; bit-identical to MatMul(a, bᵀ).
Tensor MatMulTransB(const Tensor& a, const Tensor& b);
/// [k,m]ᵀ × [k,n] → [m,n]; bit-identical to MatMul(aᵀ, b).
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
/// Batched [B,m,k] × [B,k,n] → [B,m,n].
Tensor MatMulBatched(const Tensor& a, const Tensor& b);
/// Batched [B,m,k] × ([B,n,k] transposed per sample) → [B,m,n];
/// bit-identical to MatMulBatched(a, TransposeLast2(b)).
Tensor MatMulBatchedTransB(const Tensor& a, const Tensor& b);
/// Batched ([B,k,m] transposed per sample) × [B,k,n] → [B,m,n];
/// bit-identical to MatMulBatched(TransposeLast2(a), b).
Tensor MatMulBatchedTransA(const Tensor& a, const Tensor& b);
/// Swaps the last two axes of a rank-3 tensor: [B,m,n] → [B,n,m].
Tensor TransposeLast2(const Tensor& a);

/// Numerically stable softmax over the last axis.
Tensor SoftmaxLastAxis(const Tensor& a);

// --- Structural ----------------------------------------------------------------

/// Concatenates tensors along `axis`; all other dimensions must match.
Tensor Concat(const std::vector<Tensor>& parts, int axis);

/// Copies `len` indices starting at `start` along `axis` into a new tensor.
Tensor Slice(const Tensor& a, int axis, int64_t start, int64_t len);

/// Broadcasts `a` to `target` shape (materialized).
Tensor BroadcastTo(const Tensor& a, const Shape& target);

}  // namespace musenet::tensor

#endif  // MUSENET_TENSOR_TENSOR_OPS_H_
