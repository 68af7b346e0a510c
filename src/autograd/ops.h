#ifndef MUSENET_AUTOGRAD_OPS_H_
#define MUSENET_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/variable.h"
#include "tensor/conv2d.h"
#include "tensor/tensor_ops.h"

namespace musenet::autograd {

// Differentiable ops. Each builds a graph node whose backward distributes the
// output gradient to the inputs using the kernels in tensor/tensor_ops.h.
// Broadcasting in binary ops follows NumPy rules; the backward pass sums the
// gradient over broadcast axes (tensor::ReduceToShape).

/// Wraps a tensor as a non-trainable leaf (e.g. batch inputs).
Variable Constant(tensor::Tensor value);

// --- Elementwise binary ------------------------------------------------------

Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Div(const Variable& a, const Variable& b);

Variable AddScalar(const Variable& a, float s);
Variable MulScalar(const Variable& a, float s);

// --- Fused -------------------------------------------------------------------

/// act(x + bias) as one node/kernel. Bit-identical to
/// ApplyActivation(Add(x, bias)); `bias` must broadcast against `x` with at
/// most one non-unit axis.
Variable BiasActivation(const Variable& x, const Variable& bias,
                        tensor::ActKind act, float alpha = 0.1f);

/// a + b ⊙ c as one node/kernel; shapes must match exactly. Bit-identical to
/// Add(a, Mul(b, c)).
Variable FusedMulAdd(const Variable& a, const Variable& b, const Variable& c);

// --- Elementwise unary -------------------------------------------------------

Variable Exp(const Variable& a);
Variable Sqrt(const Variable& a);
Variable Tanh(const Variable& a);
/// LeakyReLU with negative slope `alpha`.
Variable LeakyRelu(const Variable& a, float alpha = 0.1f);
Variable Sigmoid(const Variable& a);
Variable Square(const Variable& a);
/// Clamp with straight-through gradient inside [lo, hi], zero outside.
Variable Clamp(const Variable& a, float lo, float hi);

// --- Reductions --------------------------------------------------------------

Variable SumAll(const Variable& a);
Variable MeanAll(const Variable& a);
Variable Sum(const Variable& a, int axis, bool keepdims = false);
Variable Mean(const Variable& a, int axis, bool keepdims = false);

// --- Linear algebra ----------------------------------------------------------

Variable MatMul(const Variable& a, const Variable& b);
Variable MatMulBatched(const Variable& a, const Variable& b);
Variable TransposeLast2(const Variable& a);
Variable SoftmaxLastAxis(const Variable& a);

/// 2-D convolution: input [B,Cin,H,W] ⊛ weight [Cout,Cin,kh,kw]. `ws`
/// (optional, layer-owned, must outlive the graph) reuses im2col scratch
/// across calls instead of borrowing from the storage pool.
Variable Conv2d(const Variable& input, const Variable& weight,
                const tensor::Conv2dSpec& spec,
                tensor::Conv2dWorkspace* ws = nullptr);

// --- Structural ----------------------------------------------------------------

Variable Reshape(const Variable& a, tensor::Shape new_shape);
Variable Flatten2d(const Variable& a);  ///< [B, ...] → [B, rest].
Variable Concat(const std::vector<Variable>& parts, int axis);
Variable Slice(const Variable& a, int axis, int64_t start, int64_t len);

// --- Convenience operators (thin wrappers over the functions above) ----------

inline Variable operator+(const Variable& a, const Variable& b) {
  return Add(a, b);
}
inline Variable operator-(const Variable& a, const Variable& b) {
  return Sub(a, b);
}
inline Variable operator*(const Variable& a, const Variable& b) {
  return Mul(a, b);
}
inline Variable operator/(const Variable& a, const Variable& b) {
  return Div(a, b);
}

}  // namespace musenet::autograd

#endif  // MUSENET_AUTOGRAD_OPS_H_
