#include "infer/specialize.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "infer/kernels.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace musenet::infer {

namespace ag = musenet::autograd;
namespace ts = musenet::tensor;

namespace {

int32_t ResolveBase(const Plan& plan, int32_t idx) {
  while (plan.buffers[idx].loc == BufLoc::kAlias) {
    idx = plan.buffers[idx].alias_of;
  }
  return idx;
}

/// Stage 1: every kWeight buffer becomes a plan-owned kConstant copy. The
/// rewrite needs values; replay stops chasing parameter pointers.
void SnapshotWeights(Plan* plan) {
  for (PlanBuffer& buf : plan->buffers) {
    if (buf.loc != BufLoc::kWeight) continue;
    const float* src = buf.weight->value.data();
    buf.constant.assign(src, src + buf.elems);
    buf.weight.reset();
    buf.loc = BufLoc::kConstant;
  }
}

/// Stage 2: executes steps whose inputs are all constants once, now, and
/// bakes their outputs. Collapses the eval-BN 1/sqrt(var+eps) chains (and
/// any other weight-only arithmetic) so stage 3 sees plain per-channel
/// vectors. `live` marks surviving steps.
void FoldConstants(Plan* plan, std::vector<bool>* live) {
  const int32_t root_base = ResolveBase(*plan, plan->root);
  std::vector<float*> ptrs(plan->buffers.size(), nullptr);
  for (size_t s = 0; s < plan->steps.size(); ++s) {
    Step& step = plan->steps[s];
    if (step.out == root_base) continue;  // Keep the plan executable.
    bool all_const = true;
    for (const int32_t in_idx : step.in) {
      if (plan->buffers[ResolveBase(*plan, in_idx)].loc != BufLoc::kConstant) {
        all_const = false;
        break;
      }
    }
    if (!all_const) continue;

    PlanBuffer& out = plan->buffers[step.out];
    std::vector<float> value(static_cast<size_t>(out.elems), 0.0f);
    std::vector<float> scratch;
    for (size_t i = 0; i < plan->buffers.size(); ++i) {
      PlanBuffer& buf = plan->buffers[i];
      if (buf.loc == BufLoc::kConstant) ptrs[i] = buf.constant.data();
    }
    for (size_t i = 0; i < plan->buffers.size(); ++i) {
      if (plan->buffers[i].loc == BufLoc::kAlias) {
        ptrs[i] = ptrs[ResolveBase(*plan, static_cast<int32_t>(i))];
      }
    }
    ptrs[step.out] = value.data();
    if (step.scratch >= 0) {
      scratch.resize(
          static_cast<size_t>(plan->buffers[step.scratch].elems), 0.0f);
      ptrs[step.scratch] = scratch.data();
    }
    RunStep(step, ptrs.data(), *plan);
    out.loc = BufLoc::kConstant;
    out.constant = std::move(value);
    out.arena_offset = -1;
    (*live)[s] = false;
  }
}

/// Extracts a per-channel constant: `idx` must resolve to a kConstant that
/// is either a scalar (broadcast to all channels) or exactly `channels`
/// elements whose single non-unit axis right-aligns onto axis 1 of
/// `out_dims` ([1,C,1,1] against [B,C,H,W], [N] against [M,N], ...).
bool PerChannelConst(const Plan& plan, int32_t idx, int64_t channels,
                     const std::vector<int64_t>& out_dims,
                     std::vector<float>* vals) {
  const PlanBuffer& buf = plan.buffers[ResolveBase(plan, idx)];
  if (buf.loc != BufLoc::kConstant) return false;
  if (buf.elems == 1) {
    vals->assign(static_cast<size_t>(channels), buf.constant[0]);
    return true;
  }
  if (buf.elems != channels) return false;
  const int offset =
      static_cast<int>(out_dims.size()) - static_cast<int>(buf.dims.size());
  if (offset < 0) return false;
  int non_unit = -1;
  for (size_t a = 0; a < buf.dims.size(); ++a) {
    if (buf.dims[a] != 1) {
      if (non_unit != -1) return false;
      non_unit = static_cast<int>(a);
    }
  }
  if (non_unit < 0 || non_unit + offset != 1) return false;
  vals->assign(buf.constant.begin(), buf.constant.end());
  return true;
}

/// Per-output-channel affine chain accumulated while walking downstream of
/// a conv/dense step: running value y = scale·y₀ + shift, closed by one
/// optional activation.
struct ChainFold {
  std::vector<float> scale;
  std::vector<float> shift;
  int32_t act = static_cast<int32_t>(ts::ActKind::kIdentity);
  float alpha = 0.0f;
  int32_t final_out = -1;           ///< Output buffer after the chain.
  std::vector<size_t> absorbed;     ///< Step indices folded away.
};

/// Walks the single-consumer chain downstream of step `s` (producing buffer
/// `out0` with `channels` output channels), absorbing per-channel affine
/// steps and one trailing activation. Stops at the first step it cannot
/// absorb; everything absorbed so far stays absorbed (the fold is always a
/// valid prefix).
ChainFold WalkChain(const Plan& plan, const std::vector<bool>& live,
                    const std::vector<int>& consumers,
                    const std::vector<int>& consumer_step,
                    const std::vector<bool>& aliased, int32_t root_base,
                    int32_t out0, int64_t channels) {
  ChainFold fold;
  fold.scale.assign(static_cast<size_t>(channels), 1.0f);
  fold.shift.assign(static_cast<size_t>(channels), 0.0f);
  fold.final_out = out0;

  int32_t cur = out0;
  while (true) {
    // Absorbing the consumer of `cur` turns `cur` into a dead buffer, so it
    // must have exactly one consuming step, no aliases, and not be the root.
    if (cur == root_base || aliased[cur] || consumers[cur] != 1) break;
    const size_t t = static_cast<size_t>(consumer_step[cur]);
    if (!live[t]) break;
    const Step& step = plan.steps[t];
    const std::vector<int64_t>& out_dims = plan.buffers[step.out].dims;
    std::vector<float> c;
    bool terminal = false;
    switch (step.kind) {
      case ag::OpKind::kAdd: {
        const int32_t other = step.in[step.in[0] == cur ? 1 : 0];
        if (step.in[0] == cur && step.in[1] == cur) return fold;
        if (!PerChannelConst(plan, other, channels, out_dims, &c)) return fold;
        for (int64_t i = 0; i < channels; ++i) fold.shift[i] += c[i];
        break;
      }
      case ag::OpKind::kSub: {
        if (step.in[0] == cur && step.in[1] == cur) return fold;
        if (step.in[0] == cur) {  // y − c
          if (!PerChannelConst(plan, step.in[1], channels, out_dims, &c)) {
            return fold;
          }
          for (int64_t i = 0; i < channels; ++i) fold.shift[i] -= c[i];
        } else {  // c − y
          if (!PerChannelConst(plan, step.in[0], channels, out_dims, &c)) {
            return fold;
          }
          for (int64_t i = 0; i < channels; ++i) {
            fold.scale[i] = -fold.scale[i];
            fold.shift[i] = c[i] - fold.shift[i];
          }
        }
        break;
      }
      case ag::OpKind::kMul: {
        const int32_t other = step.in[step.in[0] == cur ? 1 : 0];
        if (step.in[0] == cur && step.in[1] == cur) return fold;
        if (!PerChannelConst(plan, other, channels, out_dims, &c)) return fold;
        for (int64_t i = 0; i < channels; ++i) {
          fold.scale[i] *= c[i];
          fold.shift[i] *= c[i];
        }
        break;
      }
      case ag::OpKind::kDiv: {
        if (step.in[0] != cur || step.in[1] == cur) return fold;  // c/y.
        if (!PerChannelConst(plan, step.in[1], channels, out_dims, &c)) {
          return fold;
        }
        for (int64_t i = 0; i < channels; ++i) {
          fold.scale[i] /= c[i];
          fold.shift[i] /= c[i];
        }
        break;
      }
      case ag::OpKind::kAddScalar:
        for (int64_t i = 0; i < channels; ++i) fold.shift[i] += step.attrs.f0;
        break;
      case ag::OpKind::kMulScalar:
        for (int64_t i = 0; i < channels; ++i) {
          fold.scale[i] *= step.attrs.f0;
          fold.shift[i] *= step.attrs.f0;
        }
        break;
      case ag::OpKind::kBiasAct: {
        if (step.in[0] != cur) return fold;
        if (step.geom.channels != channels) return fold;
        if (!PerChannelConst(plan, step.in[1], channels, out_dims, &c)) {
          return fold;
        }
        for (int64_t i = 0; i < channels; ++i) fold.shift[i] += c[i];
        fold.act = static_cast<int32_t>(step.attrs.i0);
        fold.alpha = step.attrs.f0;
        terminal = true;
        break;
      }
      case ag::OpKind::kLeakyRelu:
        fold.act = static_cast<int32_t>(ts::ActKind::kLeakyRelu);
        fold.alpha = step.attrs.f0;
        terminal = true;
        break;
      case ag::OpKind::kTanh:
        fold.act = static_cast<int32_t>(ts::ActKind::kTanh);
        terminal = true;
        break;
      case ag::OpKind::kSigmoid:
        fold.act = static_cast<int32_t>(ts::ActKind::kSigmoid);
        terminal = true;
        break;
      default:
        return fold;  // Not an affine/activation step: chain ends here.
    }
    fold.absorbed.push_back(t);
    fold.final_out = step.out;
    cur = step.out;
    if (terminal) break;  // An activation closes the affine form.
  }
  return fold;
}

/// Packs a dense weight (`w` is the [k, n] row-major B operand, already
/// scaled) into the GEMM's B tile layout.
PackedWeight PackDense(const std::vector<float>& w, int64_t k, int64_t n,
                       std::vector<float> bias, int32_t act) {
  PackedWeight pw;
  pw.bias = std::move(bias);
  bool any_bias = false;
  for (const float b : pw.bias) any_bias = any_bias || b != 0.0f;
  pw.has_epilogue =
      any_bias || act != static_cast<int32_t>(ts::ActKind::kIdentity);

  pw.f32.resize(static_cast<size_t>(ts::GemmPackedBElems(k, n)));
  ts::GemmPackBTiles(k, n, w.data(), n, pw.f32.data());
  return pw;
}

/// Packs a conv weight (`w` is [cout, kdim] row-major, already scaled) into
/// the direct-conv layout wd[kk·cout + r] — kk ascends in im2col row order
/// (ci, ky, kx), so the direct kernel reduces in the exact k order of the
/// im2col GEMM.
PackedWeight PackConvDirect(const std::vector<float>& w, int64_t cout,
                            int64_t kdim, std::vector<float> bias,
                            int32_t act) {
  PackedWeight pw;
  pw.bias = std::move(bias);
  bool any_bias = false;
  for (const float b : pw.bias) any_bias = any_bias || b != 0.0f;
  pw.has_epilogue =
      any_bias || act != static_cast<int32_t>(ts::ActKind::kIdentity);

  pw.f32.resize(static_cast<size_t>(kdim * cout));
  for (int64_t r = 0; r < cout; ++r) {
    const float* row = w.data() + r * kdim;
    for (int64_t kk = 0; kk < kdim; ++kk) pw.f32[kk * cout + r] = row[kk];
  }
  return pw;
}

}  // namespace

Status SpecializePlan(Plan* plan) {
  MUSE_CHECK(plan->root >= 0) << "SpecializePlan on an empty plan";
  const int32_t root_base = ResolveBase(*plan, plan->root);

  SnapshotWeights(plan);
  std::vector<bool> live(plan->steps.size(), true);
  FoldConstants(plan, &live);

  // Per-buffer consumer census over live steps (reads through aliases count
  // against the alias base), plus which buffers have alias views at all —
  // both gate chain absorption in WalkChain.
  std::vector<int> consumers(plan->buffers.size(), 0);
  std::vector<int> consumer_step(plan->buffers.size(), -1);
  std::vector<bool> aliased(plan->buffers.size(), false);
  for (size_t i = 0; i < plan->buffers.size(); ++i) {
    if (plan->buffers[i].loc == BufLoc::kAlias) {
      aliased[ResolveBase(*plan, static_cast<int32_t>(i))] = true;
    }
  }
  for (size_t s = 0; s < plan->steps.size(); ++s) {
    if (!live[s]) continue;
    for (const int32_t in_idx : plan->steps[s].in) {
      const int32_t base = ResolveBase(*plan, in_idx);
      ++consumers[base];
      consumer_step[base] = static_cast<int>(s);
    }
  }

  // Stage 3: fold + repack each conv/dense with a constant weight.
  // Identical (weight, scale, shift, act) folds share one payload —
  // recurrent cells replay the same weight every timestep and would
  // otherwise duplicate it per step.
  struct CacheEntry {
    std::vector<float> scale;
    std::vector<float> shift;
    int32_t act;
    float alpha;
    int32_t index;
  };
  std::map<int32_t, std::vector<CacheEntry>> packed_cache;
  for (size_t s = 0; s < plan->steps.size(); ++s) {
    if (!live[s]) continue;
    Step& step = plan->steps[s];
    if (step.kind != ag::OpKind::kConv2d && step.kind != ag::OpKind::kMatMul) {
      continue;
    }
    const bool is_conv = step.kind == ag::OpKind::kConv2d;
    // A strided conv keeps its generic im2col step: only stride 1 has a
    // specialized kernel.
    if (is_conv && step.attrs.i0 != 1) continue;
    const int32_t w_idx = ResolveBase(*plan, step.in[1]);
    const PlanBuffer& w_buf = plan->buffers[w_idx];
    if (w_buf.loc != BufLoc::kConstant) continue;
    const int64_t channels = is_conv ? step.geom.cout : step.geom.cols;

    ChainFold fold =
        WalkChain(*plan, live, consumers, consumer_step, aliased, root_base,
                  step.out, channels);

    // Scaled weight matrix: conv A operand [cout, kdim] (rows scaled),
    // dense B operand [k, n] (columns scaled).
    const int64_t kdim =
        is_conv ? step.geom.cin * step.geom.kh * step.geom.kw : step.geom.k;
    std::vector<float> w(w_buf.constant.begin(), w_buf.constant.end());
    if (is_conv) {
      for (int64_t c = 0; c < channels; ++c) {
        float* row = w.data() + c * kdim;
        for (int64_t e = 0; e < kdim; ++e) row[e] *= fold.scale[c];
      }
    } else {
      for (int64_t kk = 0; kk < kdim; ++kk) {
        float* row = w.data() + kk * channels;
        for (int64_t c = 0; c < channels; ++c) row[c] *= fold.scale[c];
      }
    }

    // Dedup: reuse an existing payload when the same weight buffer folded
    // with an identical (scale, shift, act) tuple.
    int32_t packed_index = -1;
    for (const CacheEntry& entry : packed_cache[w_idx]) {
      if (entry.scale == fold.scale && entry.shift == fold.shift &&
          entry.act == fold.act && entry.alpha == fold.alpha) {
        packed_index = entry.index;
        break;
      }
    }
    if (packed_index < 0) {
      plan->packed_weights.push_back(
          is_conv ? PackConvDirect(w, channels, kdim, fold.shift, fold.act)
                  : PackDense(w, kdim, channels, fold.shift, fold.act));
      packed_index = static_cast<int32_t>(plan->packed_weights.size() - 1);
      packed_cache[w_idx].push_back(
          {fold.scale, fold.shift, fold.act, fold.alpha, packed_index});
    }

    // Rewrite the step in place: spec kernel, weight input dropped, output
    // retargeted to the chain's final buffer so downstream steps are
    // untouched. Absorbed steps die; their intermediates go dead with them.
    step.spec = is_conv ? SpecKind::kConvDirect : SpecKind::kDensePacked;
    step.op_name = is_conv ? "infer.conv_direct" : "infer.dense_packed";
    step.packed = packed_index;
    step.spec_act = fold.act;
    step.spec_alpha = fold.alpha;
    step.in.resize(1);
    step.out = fold.final_out;
    for (const size_t t : fold.absorbed) live[t] = false;
    if (is_conv) {
      // Scratch holds one padded input image per sample; im2col and PackB
      // scratch are gone.
      step.geom.col_elems = 0;
      step.geom.pack_elems = 0;
      plan->buffers[step.scratch].elems =
          DirectConvScratchElems(step.geom, step.attrs.i1);
    } else if (step.scratch >= 0) {
      step.scratch = -1;  // Pre-packed B: no per-call pack scratch at all.
    }
    plan->specialized = true;
  }

  // Stage 4: drop dead steps, free dead constant payloads, recompute flops
  // and the arena layout over the new lifetimes.
  std::vector<Step> kept;
  kept.reserve(plan->steps.size());
  for (size_t s = 0; s < plan->steps.size(); ++s) {
    if (live[s]) kept.push_back(std::move(plan->steps[s]));
  }
  plan->steps = std::move(kept);

  std::vector<bool> referenced(plan->buffers.size(), false);
  auto mark = [&](int32_t idx) {
    referenced[idx] = true;
    referenced[ResolveBase(*plan, idx)] = true;
  };
  for (const Step& step : plan->steps) {
    mark(step.out);
    if (step.scratch >= 0) mark(step.scratch);
    for (const int32_t in_idx : step.in) mark(in_idx);
  }
  mark(plan->root);
  for (size_t i = 0; i < plan->buffers.size(); ++i) {
    PlanBuffer& buf = plan->buffers[i];
    if (buf.loc == BufLoc::kConstant && !referenced[i]) {
      buf.constant.clear();
      buf.constant.shrink_to_fit();
    }
  }

  plan->flops = 0;
  for (const Step& step : plan->steps) {
    const StepGeom& g = step.geom;
    switch (step.kind) {
      case ag::OpKind::kMatMul:
        plan->flops += 2 * g.m * g.cols * g.k;
        break;
      case ag::OpKind::kMatMulBatched:
        plan->flops += 2 * g.batch * g.m * g.cols * g.k;
        break;
      case ag::OpKind::kConv2d:
        plan->flops += 2 * g.batch * g.cout * g.cin * g.kh * g.kw * g.oh *
                       g.ow;
        break;
      default:
        break;
    }
  }
  LayoutArena(plan);
  return Status::OK();
}

}  // namespace musenet::infer
