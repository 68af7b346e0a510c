#ifndef MUSENET_INFER_KERNELS_H_
#define MUSENET_INFER_KERNELS_H_

#include "infer/plan.h"

namespace musenet::infer {

/// Executes one plan step against resolved buffer pointers: `bufs[i]` is the
/// storage of plan buffer `i` (arena slot, weight data, batch input or baked
/// constant — aliases already resolved to their base). Dispatches into the
/// same tiled GEMM / im2col / fused kernels the autograd ops use, with
/// identical accumulation orders, so planned outputs match the traced
/// forward bit for bit. Steps specialized by SpecializePlan (spec !=
/// SpecKind::kNone) replay their pre-tiled weight from
/// `plan.packed_weights[step.packed]` instead — same ascending-k
/// accumulation through the same micro-kernel. Performs no heap allocation.
void RunStep(const Step& step, float* const* bufs, const Plan& plan);

/// Arena scratch elements a SpecKind::kConvDirect step needs: one
/// zero-padded input image per sample. SpecializePlan sizes the step's
/// scratch buffer with this; RunStep carves the same layout back out.
int64_t DirectConvScratchElems(const StepGeom& geom, int64_t pad);

}  // namespace musenet::infer

#endif  // MUSENET_INFER_KERNELS_H_
