#ifndef MUSENET_INFER_SPECIALIZE_H_
#define MUSENET_INFER_SPECIALIZE_H_

#include "infer/plan.h"
#include "util/status.h"

namespace musenet::infer {

// Plan-time weight specialization: rewrites a compiled Plan in place so that
// replay does strictly less work per call, at the cost of freezing the
// weights it folds (the engine replans after Train, so this is invisible to
// callers).
//
// The pass runs four stages:
//  1. Weight snapshot — every kWeight buffer becomes a kConstant copy, so
//     the rewrite can read values and the specialized plan stops chasing
//     parameter pointers at run time.
//  2. Constant folding — any step whose inputs are all constants is executed
//     once now and its output baked (this collapses the eval-mode BN
//     1/sqrt(var+eps) chain to a single per-channel vector).
//  3. Affine folding + repacking — for each stride-1 Conv2d / MatMul with a
//     constant weight, the single-consumer chain of per-channel/scalar Add/
//     Sub/Mul/Div/AddScalar/MulScalar steps (the folded BN affine, bias
//     adds), an optional BiasAct, and one trailing activation are absorbed
//     into the weight (W' = W·scale per output channel, bias = shift) and a
//     fused epilogue; the weight is then repacked for its kernel (the direct
//     conv layout, or the GEMM micro-kernel's B tiles for dense). The step
//     becomes kConvDirect / kDensePacked writing directly to the chain's
//     final output buffer. A strided conv keeps its generic step.
//  4. Re-layout — dead steps are dropped, dead constants freed, flops
//     recomputed, and the arena re-laid-out over the new lifetimes.
//
// Numerics: stage 3 changes the arithmetic (scales are multiplied into
// weights ahead of the GEMM), so specialized output is no longer bit-equal
// to the traced forward — the engine gates adoption on a max element delta
// against the unspecialized plan. Accumulation itself still runs the
// fp32 micro-kernel in the same ascending-k order, so specialized replay
// remains deterministic and thread-count independent.

/// Specializes `plan` in place. Sets plan->specialized when at least one
/// step was rewritten; a plan with no conv/dense steps (or with every weight
/// unfoldable) comes back unchanged and ok. Never fails on model structure —
/// unsupported patterns are simply left generic.
Status SpecializePlan(Plan* plan);

}  // namespace musenet::infer

#endif  // MUSENET_INFER_SPECIALIZE_H_
