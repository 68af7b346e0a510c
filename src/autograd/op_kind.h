#ifndef MUSENET_AUTOGRAD_OP_KIND_H_
#define MUSENET_AUTOGRAD_OP_KIND_H_

#include <cstdint>

namespace musenet::autograd {

/// Machine-readable identity of the op that produced a graph node.
///
/// `op_name` on a Node is a human label for diagnostics; OpKind is the
/// contract the inference planner (musenet::infer) compiles against: every
/// differentiable op in ops.cc tags the node it creates, and the planner maps
/// each kind a forward pass uses to a graph-free kernel (kSumAll, which only
/// losses reach, is not planned). Composite ops record the primitive they
/// lower to (MeanAll and Mean are kMulScalar over a sum, Flatten2d is
/// kReshape), so the planner only ever sees this closed set.
enum class OpKind : int16_t {
  kLeaf = 0,       ///< Parameter, constant or input; no producing op.
  kAdd,            ///< Broadcasting elementwise a + b.
  kSub,            ///< Broadcasting elementwise a − b.
  kMul,            ///< Broadcasting elementwise a · b.
  kDiv,            ///< Broadcasting elementwise a / b.
  kAddScalar,      ///< x + attrs.f0.
  kMulScalar,      ///< x · attrs.f0.
  kBiasAct,        ///< Fused bias + activation; attrs.i0 = ActKind, f0 = alpha.
  kMulAddFused,    ///< a + b · c, all same shape.
  kExp,
  kSqrt,
  kTanh,
  kLeakyRelu,      ///< attrs.f0 = negative-side slope.
  kSigmoid,
  kSquare,
  kClamp,          ///< attrs.f0 = lo, attrs.f1 = hi.
  kSumAll,         ///< Scalar sum of all elements.
  kSumAxis,        ///< Sum over attrs.i0 (output keeps reduced rank layout).
  kMatMul,         ///< [m,k]·[k,n].
  kMatMulBatched,  ///< [b,m,k]·[b,k,n].
  kTransposeLast2, ///< Swap the last two axes of a rank-≥2 tensor.
  kSoftmax,        ///< Softmax over the last axis.
  kConv2d,         ///< attrs.i0 = stride, attrs.i1 = pad.
  kReshape,        ///< Same elements, new shape (alias in the planner).
  kConcat,         ///< Concatenate inputs along attrs.i0.
  kSlice,          ///< attrs.i0 = axis, i1 = start, i2 = len.
};

/// Scalar attributes accompanying an OpKind (see the per-kind comments).
/// Plain data so a recorded plan step can hold it by value.
struct OpAttrs {
  float f0 = 0.0f;
  float f1 = 0.0f;
  int64_t i0 = 0;
  int64_t i1 = 0;
  int64_t i2 = 0;
};

}  // namespace musenet::autograd

#endif  // MUSENET_AUTOGRAD_OP_KIND_H_
