#ifndef MUSENET_INFER_PLAN_H_
#define MUSENET_INFER_PLAN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "autograd/op_kind.h"
#include "autograd/variable.h"
#include "data/dataset.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace musenet::infer {

// Static execution plan for one forecaster at one batch size.
//
// BuildPlan walks the autograd graph that PlanForward traced (eval mode,
// stochastic=false), topologically sorts the ops reachable from the
// prediction node — which by construction prunes the reconstruction decoders
// and regularizer heads — and compiles them to a flat step list over a
// preplanned float arena. Buffer lifetimes are exact (birth at the producing
// step, death after the last consuming step), so the greedy first-fit layout
// reuses arena regions aggressively; steady-state execution (engine.h) then
// runs with zero heap allocations.

/// Where a plan buffer's bytes live at execution time.
enum class BufLoc : uint8_t {
  kArena,     ///< Offset into the preplanned arena (op outputs, scratch).
  kWeight,    ///< A parameter node; pointer re-resolved on every run.
  kInput,     ///< One of the batch tensors (closeness/period/trend).
  kConstant,  ///< Value baked at plan time (eval BN stats, shaped zeros).
  kAlias,     ///< Same storage as another buffer (Reshape).
};

struct PlanBuffer {
  BufLoc loc = BufLoc::kArena;
  std::vector<int64_t> dims;
  int64_t elems = 0;
  int64_t arena_offset = -1;  ///< kArena only.
  /// kWeight: the parameter node. Holding the shared_ptr keeps it alive and
  /// lets every run re-read `node->value.data()`, so in-place optimizer
  /// updates and LoadStateDict stay visible without replanning.
  std::shared_ptr<autograd::Node> weight;
  int input_index = -1;        ///< kInput: 0=closeness, 1=period, 2=trend.
  std::vector<float> constant; ///< kConstant: plan-owned copy.
  int32_t alias_of = -1;       ///< kAlias: index of the storage owner.
};

/// Precomputed geometry for one step, so RunStep does no shape math.
/// Which fields are meaningful depends on the step's OpKind.
struct StepGeom {
  int64_t n = 0;      ///< Output element count (elementwise, unary).
  int64_t outer = 0;  ///< outer × mid × inner decomposition (sum/concat/
  int64_t mid = 0;    ///< slice); `mid` is the axis extent.
  int64_t inner = 0;
  int64_t m = 0, k = 0, cols = 0;  ///< GEMM dims (cols = n of the GEMM).
  int64_t batch = 0;               ///< Batched matmul / conv.
  int64_t cin = 0, h = 0, w = 0;   ///< Conv input planes.
  int64_t cout = 0, kh = 0, kw = 0, oh = 0, ow = 0;
  int64_t channels = 1, bias_inner = 1;  ///< BiasAct layout.
  int64_t col_elems = 0;   ///< Conv: per-sample im2col matrix size.
  int64_t pack_elems = 0;  ///< Per-sample GEMM pack scratch size.
  /// Broadcast binary: fast-path flags and right-aligned stride tables.
  bool same_shape = false;
  bool a_scalar = false;
  bool b_scalar = false;
  int rank = 0;
  int64_t dims[8] = {0};
  int64_t sa[8] = {0};
  int64_t sb[8] = {0};
  std::vector<int64_t> aux;  ///< Concat: per-input extents along the axis.
};

/// How a step was specialized (SpecializePlan); kNone replays the generic
/// kernel for its OpKind.
enum class SpecKind : uint8_t {
  kNone,
  kConvDirect,   ///< Stride-1 Conv2d, im2col-free direct kernel.
  kDensePacked,  ///< MatMul with pre-tiled weights + folded bias/act.
};

/// One plan-time repacked fp32 weight, with BN/affine chains already folded
/// in. `f32` is the GemmPackBTiles layout for dense, and the direct layout
/// `wd[kk * cout + r]` for conv, with kk = (ci·kh + ky)·kw + kx, the same
/// k order the im2col GEMM reduces in.
struct PackedWeight {
  std::vector<float> f32;
  std::vector<float> bias;  ///< Folded per-channel shift (β − μ·γ/σ, +bias).
  bool has_epilogue = false;  ///< Any nonzero bias or non-identity act.
};

struct Step {
  autograd::OpKind kind = autograd::OpKind::kLeaf;
  autograd::OpAttrs attrs;
  const char* op_name = "";
  std::vector<int32_t> in;  ///< Buffer indices of the inputs.
  int32_t out = -1;         ///< Buffer index of the output.
  int32_t scratch = -1;     ///< Arena scratch buffer, or -1.
  SpecKind spec = SpecKind::kNone;
  int32_t packed = -1;    ///< Index into Plan::packed_weights (spec only).
  int32_t spec_act = 0;   ///< tensor::ActKind of the folded epilogue.
  float spec_alpha = 0;   ///< LeakyRelu slope of the folded epilogue.
  StepGeom geom;
};

struct Plan {
  std::vector<PlanBuffer> buffers;
  std::vector<Step> steps;
  std::vector<PackedWeight> packed_weights;  ///< SpecializePlan outputs.
  int32_t root = -1;          ///< Buffer holding the prediction.
  int64_t arena_elems = 0;    ///< Total arena size in floats.
  int64_t batch_size = 0;     ///< Batch size the plan was compiled for.
  tensor::Shape out_shape;    ///< Prediction shape [B, 2, H, W].
  int64_t flops = 0;          ///< GEMM/conv flops per run (for telemetry).
  bool specialized = false;   ///< Any step rewritten by SpecializePlan.
};

/// Compiles the graph under `root` (a PlanForward result on `batch`) into a
/// Plan. `batch` identifies the input leaves by shape + content match and
/// fixes the plan's batch size. Fails with InvalidArgument on ops outside
/// the planner's closed kind set (callers then fall back to Predict).
Result<Plan> BuildPlan(const autograd::Variable& root,
                       const data::Batch& batch);

/// Recomputes arena buffer lifetimes from the current step list and lays the
/// arena out with the greedy first-fit allocator, updating every kArena
/// buffer's arena_offset and plan->arena_elems. BuildPlan calls this once;
/// SpecializePlan calls it again after rewriting steps (folded-away buffers
/// get offset 0 and cost no arena space, since no live step touches them).
void LayoutArena(Plan* plan);

}  // namespace musenet::infer

#endif  // MUSENET_INFER_PLAN_H_
