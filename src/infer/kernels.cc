#include "infer/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/kernel_util.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace musenet::infer {

namespace ag = musenet::autograd;
namespace ts = musenet::tensor;

namespace {

// Every kernel here mirrors its tensor_ops.cc / fused_ops.cc counterpart's
// per-element arithmetic exactly (same scalar formulas, same accumulation
// chains, same GEMM entry points), so a planned run is bit-identical to the
// autograd forward it was traced from. Parallel fan-out is used only where
// elements are independent or where the training kernels fan out the same
// way (per-sample conv/batched-GEMM), which keeps results thread-count
// independent as well.

template <typename Fn>
void UnaryMap(const Step& step, float* const* bufs, Fn fn) {
  const float* pa = bufs[step.in[0]];
  float* po = bufs[step.out];
  ts::MaybeParallelFor(step.geom.n, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = fn(pa[i]);
  });
}

// True when strides `s` address an operand that is dense over the full
// output shape (stride equals the suffix product wherever the dim is > 1).
inline bool ContigOver(const StepGeom& geom, const int64_t* s) {
  int64_t expect = 1;
  for (int axis = geom.rank - 1; axis >= 0; --axis) {
    if (geom.dims[axis] > 1 && s[axis] != expect) return false;
    expect *= geom.dims[axis];
  }
  return true;
}

// True when strides `s` address a per-channel operand — one broadcast axis
// carrying a dense vector ([1, C, 1, 1] against [N, C, H, W]), zeros
// everywhere else. The operand's element for flat output index i is then
// `(i / inner) % period`, the same indexing RunBiasAct uses.
inline bool PeriodicOver(const StepGeom& geom, const int64_t* s,
                         int64_t* inner, int64_t* period) {
  int cax = -1;
  int64_t suffix = 1;
  int64_t cax_inner = 0;
  for (int axis = geom.rank - 1; axis >= 0; --axis) {
    if (s[axis] != 0 && geom.dims[axis] > 1) {
      if (cax != -1 || s[axis] != 1) return false;
      cax = axis;
      cax_inner = suffix;
    }
    suffix *= geom.dims[axis];
  }
  if (cax == -1) return false;
  *inner = cax_inner;
  *period = geom.dims[cax];
  return true;
}

template <typename Fn>
void BinaryMap(const Step& step, float* const* bufs, Fn fn) {
  const StepGeom& geom = step.geom;
  const float* pa = bufs[step.in[0]];
  const float* pb = bufs[step.in[1]];
  float* po = bufs[step.out];
  if (geom.same_shape) {
    ts::MaybeParallelFor(geom.n, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = fn(pa[i], pb[i]);
    });
    return;
  }
  if (geom.a_scalar) {
    const float s = pa[0];
    ts::MaybeParallelFor(geom.n, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = fn(s, pb[i]);
    });
    return;
  }
  if (geom.b_scalar) {
    const float s = pb[0];
    ts::MaybeParallelFor(geom.n, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = fn(pa[i], s);
    });
    return;
  }
  // Channel-broadcast fast paths: eval-mode BN folds to chains of
  // (x − mean)·inv_std·γ + β with [1, C, 1, 1] operands, which dominate the
  // non-conv time of a planned run; the generic odometer below walks a
  // multi-index per element and runs ~4x slower. Per-element values are
  // identical either way (no accumulation), so results stay bit-equal.
  int64_t inner = 0;
  int64_t period = 0;
  if (ContigOver(geom, geom.sa) &&
      PeriodicOver(geom, geom.sb, &inner, &period)) {
    ts::MaybeParallelFor(geom.n, [&](int64_t lo, int64_t hi) {
      int64_t i = lo;
      while (i < hi) {
        const int64_t block = i / inner;
        const float bv = pb[block % period];
        const int64_t stop = std::min(hi, (block + 1) * inner);
        for (; i < stop; ++i) po[i] = fn(pa[i], bv);
      }
    });
    return;
  }
  if (ContigOver(geom, geom.sb) &&
      PeriodicOver(geom, geom.sa, &inner, &period)) {
    ts::MaybeParallelFor(geom.n, [&](int64_t lo, int64_t hi) {
      int64_t i = lo;
      while (i < hi) {
        const int64_t block = i / inner;
        const float av = pa[block % period];
        const int64_t stop = std::min(hi, (block + 1) * inner);
        for (; i < stop; ++i) po[i] = fn(av, pb[i]);
      }
    });
    return;
  }
  // General broadcast: odometer over the output multi-index, seeded per
  // chunk (mirrors BroadcastBinary's generic path; each element's value is
  // fn of its two source elements, so the blocked fast paths it also has
  // cannot change results).
  const int rank = geom.rank;
  ts::MaybeParallelFor(geom.n, [&](int64_t lo, int64_t hi) {
    int64_t index[8] = {0};
    int64_t offset_a = 0;
    int64_t offset_b = 0;
    int64_t rem = lo;
    for (int axis = rank - 1; axis >= 0; --axis) {
      index[axis] = rem % geom.dims[axis];
      rem /= geom.dims[axis];
      offset_a += index[axis] * geom.sa[axis];
      offset_b += index[axis] * geom.sb[axis];
    }
    for (int64_t i = lo; i < hi; ++i) {
      po[i] = fn(pa[offset_a], pb[offset_b]);
      for (int axis = rank - 1; axis >= 0; --axis) {
        ++index[axis];
        offset_a += geom.sa[axis];
        offset_b += geom.sb[axis];
        if (index[axis] < geom.dims[axis]) break;
        index[axis] = 0;
        offset_a -= geom.sa[axis] * geom.dims[axis];
        offset_b -= geom.sb[axis] * geom.dims[axis];
      }
    }
  });
}

void RunBiasAct(const Step& step, float* const* bufs) {
  const StepGeom& geom = step.geom;
  const auto act = static_cast<ts::ActKind>(step.attrs.i0);
  const float alpha = step.attrs.f0;
  const float* px = bufs[step.in[0]];
  const float* pb = bufs[step.in[1]];
  float* po = bufs[step.out];
  const int64_t channels = geom.channels;
  const int64_t inner = geom.bias_inner;
  ts::MaybeParallelFor(geom.n, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float pre = px[i] + pb[(i / inner) % channels];
      switch (act) {
        case ts::ActKind::kIdentity:
          po[i] = pre;
          break;
        case ts::ActKind::kLeakyRelu:
          po[i] = pre > 0.0f ? pre : alpha * pre;
          break;
        case ts::ActKind::kTanh:
          po[i] = std::tanh(pre);
          break;
        case ts::ActKind::kSigmoid:
          po[i] = ts::SigmoidScalar(pre);
          break;
      }
    }
  });
}

void RunSumAxis(const Step& step, float* const* bufs) {
  const StepGeom& geom = step.geom;
  const float* pa = bufs[step.in[0]];
  float* po = bufs[step.out];
  const int64_t mid = geom.mid;
  const int64_t inner = geom.inner;
  ts::MaybeParallelFor(geom.outer * inner, [&](int64_t lo, int64_t hi) {
    for (int64_t e = lo; e < hi; ++e) {
      const int64_t o = e / inner;
      const int64_t in = e % inner;
      double total = 0.0;
      for (int64_t m = 0; m < mid; ++m) {
        total += pa[(o * mid + m) * inner + in];
      }
      po[e] = static_cast<float>(total);
    }
  });
}

void RunSoftmax(const Step& step, float* const* bufs) {
  const StepGeom& geom = step.geom;
  const float* pa = bufs[step.in[0]];
  float* po = bufs[step.out];
  const int64_t n = geom.mid;
  ts::MaybeParallelFor(geom.outer, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* row = pa + r * n;
      float* dst = po + r * n;
      float max_val = row[0];
      for (int64_t j = 1; j < n; ++j) max_val = std::max(max_val, row[j]);
      double total = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        dst[j] = std::exp(row[j] - max_val);
        total += dst[j];
      }
      const float inv = static_cast<float>(1.0 / total);
      for (int64_t j = 0; j < n; ++j) dst[j] *= inv;
    }
  });
}

void RunMatMul(const Step& step, float* const* bufs) {
  const StepGeom& geom = step.geom;
  float* po = bufs[step.out];
  std::memset(po, 0, sizeof(float) * static_cast<size_t>(geom.m * geom.cols));
  float* pack = step.scratch >= 0 ? bufs[step.scratch] : nullptr;
  ts::GemmAccF32(geom.m, geom.cols, geom.k, bufs[step.in[0]], geom.k,
                 bufs[step.in[1]], geom.cols, po, geom.cols, pack);
}

void RunMatMulBatched(const Step& step, float* const* bufs) {
  const StepGeom& geom = step.geom;
  const float* pa = bufs[step.in[0]];
  const float* pb = bufs[step.in[1]];
  float* po = bufs[step.out];
  float* scratch = step.scratch >= 0 ? bufs[step.scratch] : nullptr;
  const int64_t m = geom.m;
  const int64_t k = geom.k;
  const int64_t n = geom.cols;
  std::memset(po, 0,
              sizeof(float) * static_cast<size_t>(geom.batch * m * n));
  util::ActivePool().ParallelFor(0, geom.batch, 1,
                                 [&](int64_t b0, int64_t b1) {
    for (int64_t bi = b0; bi < b1; ++bi) {
      float* pack =
          scratch != nullptr ? scratch + bi * geom.pack_elems : nullptr;
      ts::GemmAccF32(m, n, k, pa + bi * m * k, k, pb + bi * k * n, n,
                     po + bi * m * n, n, pack);
    }
  });
}

void RunConv2d(const Step& step, float* const* bufs) {
  const StepGeom& geom = step.geom;
  const float* pin = bufs[step.in[0]];
  const float* pw = bufs[step.in[1]];
  float* po = bufs[step.out];
  float* scratch = bufs[step.scratch];
  const int64_t kdim = geom.cin * geom.kh * geom.kw;
  const int64_t osp = geom.oh * geom.ow;
  const int64_t stride = step.attrs.i0;
  const int64_t pad = step.attrs.i1;
  const int64_t per_sample = geom.col_elems + geom.pack_elems;
  std::memset(po, 0, sizeof(float) * static_cast<size_t>(
                         geom.batch * geom.cout * osp));
  util::ActivePool().ParallelFor(0, geom.batch, 1,
                                 [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      float* col = scratch + b * per_sample;
      float* pack = geom.pack_elems > 0 ? col + geom.col_elems : nullptr;
      ts::Im2col(pin + b * geom.cin * geom.h * geom.w, geom.cin, geom.h,
                 geom.w, geom.kh, geom.kw, stride, pad, geom.oh, geom.ow,
                 col);
      ts::GemmAccF32(geom.cout, osp, kdim, pw, kdim, col, osp,
                     po + b * geom.cout * osp, osp, pack);
    }
  });
}

void RunTransposeLast2(const Step& step, float* const* bufs) {
  const StepGeom& geom = step.geom;
  const float* pa = bufs[step.in[0]];
  float* po = bufs[step.out];
  const int64_t m = geom.m;
  const int64_t n = geom.cols;
  for (int64_t b = 0; b < geom.batch; ++b) {
    const float* src = pa + b * m * n;
    float* dst = po + b * m * n;
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) dst[j * m + i] = src[i * n + j];
    }
  }
}

void RunConcat(const Step& step, float* const* bufs) {
  const StepGeom& geom = step.geom;
  float* po = bufs[step.out];
  const int64_t out_axis_stride = geom.mid * geom.inner;
  int64_t axis_offset = 0;
  for (size_t p = 0; p < step.in.size(); ++p) {
    const float* pp = bufs[step.in[p]];
    const int64_t mid = geom.aux[p];
    for (int64_t o = 0; o < geom.outer; ++o) {
      std::copy(pp + o * mid * geom.inner, pp + (o + 1) * mid * geom.inner,
                po + o * out_axis_stride + axis_offset * geom.inner);
    }
    axis_offset += mid;
  }
}

void RunSlice(const Step& step, float* const* bufs) {
  const StepGeom& geom = step.geom;
  const float* pa = bufs[step.in[0]];
  float* po = bufs[step.out];
  const int64_t start = step.attrs.i1;
  const int64_t len = step.attrs.i2;
  for (int64_t o = 0; o < geom.outer; ++o) {
    std::copy(pa + (o * geom.mid + start) * geom.inner,
              pa + (o * geom.mid + start + len) * geom.inner,
              po + o * len * geom.inner);
  }
}

inline float ApplyActScalar(float v, ts::ActKind act, float alpha) {
  switch (act) {
    case ts::ActKind::kIdentity:
      return v;
    case ts::ActKind::kLeakyRelu:
      return v > 0.0f ? v : alpha * v;
    case ts::ActKind::kTanh:
      return std::tanh(v);
    case ts::ActKind::kSigmoid:
      return ts::SigmoidScalar(v);
  }
  return v;
}

/// row[o] = act(row[o] + bias) over a contiguous row, one branch on the
/// activation for the whole row so the common cases vectorize — a
/// per-element switch here costs about as much as the GEMM the epilogue
/// follows.
inline void BiasActRow(float* row, int64_t n, float bias, ts::ActKind act,
                       float alpha) {
  switch (act) {
    case ts::ActKind::kIdentity:
      for (int64_t o = 0; o < n; ++o) row[o] += bias;
      break;
    case ts::ActKind::kLeakyRelu:
      for (int64_t o = 0; o < n; ++o) {
        const float v = row[o] + bias;
        row[o] = v > 0.0f ? v : alpha * v;
      }
      break;
    default:
      for (int64_t o = 0; o < n; ++o) {
        row[o] = ApplyActScalar(row[o] + bias, act, alpha);
      }
  }
}

/// Column-bias variant for dense outputs: row[j] = act(row[j] + bias[j]).
inline void BiasActRowPerCol(float* row, const float* bias, int64_t n,
                             ts::ActKind act, float alpha) {
  switch (act) {
    case ts::ActKind::kIdentity:
      for (int64_t j = 0; j < n; ++j) row[j] += bias[j];
      break;
    case ts::ActKind::kLeakyRelu:
      for (int64_t j = 0; j < n; ++j) {
        const float v = row[j] + bias[j];
        row[j] = v > 0.0f ? v : alpha * v;
      }
      break;
    default:
      for (int64_t j = 0; j < n; ++j) {
        row[j] = ApplyActScalar(row[j] + bias[j], act, alpha);
      }
  }
}

// --- Specialized replay (SpecializePlan rewrites) --------------------------
//
// The dense kernel drives the exported GEMM micro-kernel over pre-tiled
// weights: K-panels ascend, k ascends within a panel, so the accumulation
// chain per output element matches GemmAccF32's exactly (fp32 repacking is
// therefore numerically invisible); the direct conv kernel below reproduces
// the same panel grouping without a column matrix, so specialized replay
// stays deterministic and thread-count independent.

// --- Direct (im2col-free) conv replay --------------------------------------
//
// Specialized stride-1 convs skip the column matrix: building it writes
// kh·kw shifted copies of every input pixel, and at serving shapes that
// costs more than the GEMM it feeds. The direct kernel instead zero-pads
// each input image once (cin·h·(w + 2·pad) floats plus a read-slack margin)
// and broadcasts weights against shifted input rows, holding an
// RT × kDirectChunk accumulator block in registers. Accumulators flush into
// the output at every kGemmKc k-boundary — the same K-panel grouping
// GemmDriver uses — so every output element sees the exact accumulation
// chain of the im2col GEMM.

#if defined(__AVX512F__)
constexpr int64_t kDirectChunk = 16;  // One 16-lane register per acc row.
#else
constexpr int64_t kDirectChunk = 8;
#endif

inline int64_t DirectPaddedWidth(int64_t w, int64_t pad) {
  // kDirectChunk slack keeps the widest shifted read in bounds: the kernel
  // always loads full chunks and discards the lanes past a short tail.
  return w + 2 * pad + kDirectChunk;
}

/// Accumulates output channels [r0, r0+RT) over every output pixel of one
/// sample. `wd` is the direct layout wd[kk·cout + r]; `pin` the padded
/// sample (row stride pws); `cbase` the sample's output [cout, oh·ow].
#if defined(__AVX512F__)

// One 16-lane register per output channel; each tap costs one shifted input
// load plus RT broadcast-FMAs — the same shape as gemm.cc's micro-kernel,
// without the packed column matrix feeding it.
template <int RT>
void DirectConvTileSweep(const float* __restrict wd,
                         const float* __restrict pin, float* cbase,
                         int64_t r0, int64_t cout, int64_t cin, int64_t h,
                         int64_t pws, int64_t kh, int64_t kw, int64_t pad,
                         int64_t oh, int64_t ow) {
  const int64_t osp = oh * ow;
  const int64_t plane = h * pws;
  const int64_t khkw = kh * kw;
  const int64_t kdim = cin * khkw;
  for (int64_t oy = 0; oy < oh; ++oy) {
    for (int64_t ox0 = 0; ox0 < ow; ox0 += kDirectChunk) {
      const int64_t len = std::min(kDirectChunk, ow - ox0);
      const __mmask16 lanes = static_cast<__mmask16>((1u << len) - 1u);
      float* crow = cbase + oy * ow + ox0;
      for (int64_t p0 = 0; p0 < kdim; p0 += ts::kGemmKc) {
        const int64_t p1 = std::min(kdim, p0 + ts::kGemmKc);
        // Panels after the first start from C — the same association the
        // GEMM micro-kernel uses when it reloads the C tile per K-panel.
        __m512 acc[RT];
        if (p0 == 0) {
          for (int r = 0; r < RT; ++r) acc[r] = _mm512_setzero_ps();
        } else {
          for (int r = 0; r < RT; ++r) {
            acc[r] = _mm512_maskz_loadu_ps(lanes, crow + (r0 + r) * osp);
          }
        }
        for (int64_t ci = p0 / khkw; ci < cin && ci * khkw < p1; ++ci) {
          const int64_t kbase = ci * khkw;
          const int64_t t0 = std::max<int64_t>(p0 - kbase, 0);
          const int64_t t1 = std::min(p1 - kbase, khkw);
          const float* xplane = pin + ci * plane;
          int64_t ky = t0 / kw;
          int64_t kx = t0 - ky * kw;
          for (int64_t t = t0; t < t1; ++t) {
            const int64_t iy = oy + ky - pad;
            // Vertically padded taps are exact zeros in the column matrix;
            // their +0 terms never change an accumulator, so they only
            // advance the tap counters.
            if (iy >= 0 && iy < h) {
              // The chunk-slack margin of the padded image keeps this full
              // 16-lane load in bounds even at a short tail.
              const __m512 x = _mm512_loadu_ps(xplane + iy * pws + ox0 + kx);
              const float* wr = wd + (kbase + t) * cout + r0;
              for (int r = 0; r < RT; ++r) {
                acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(wr[r]), x, acc[r]);
              }
            }
            if (++kx == kw) {
              kx = 0;
              ++ky;
            }
          }
        }
        for (int r = 0; r < RT; ++r) {
          _mm512_mask_storeu_ps(crow + (r0 + r) * osp, lanes, acc[r]);
        }
      }
    }
  }
}

#else  // !defined(__AVX512F__)

template <int RT>
void DirectConvTileSweep(const float* __restrict wd,
                         const float* __restrict pin, float* cbase,
                         int64_t r0, int64_t cout, int64_t cin, int64_t h,
                         int64_t pws, int64_t kh, int64_t kw, int64_t pad,
                         int64_t oh, int64_t ow) {
  const int64_t osp = oh * ow;
  const int64_t plane = h * pws;
  const int64_t khkw = kh * kw;
  const int64_t kdim = cin * khkw;
  for (int64_t oy = 0; oy < oh; ++oy) {
    for (int64_t ox0 = 0; ox0 < ow; ox0 += kDirectChunk) {
      const int64_t len = std::min(kDirectChunk, ow - ox0);
      float* crow = cbase + oy * ow + ox0;
      // One accumulator block per K-panel; the address of `acc` never
      // escapes this scope, so the block can live in vector registers.
      for (int64_t p0 = 0; p0 < kdim; p0 += ts::kGemmKc) {
        const int64_t p1 = std::min(kdim, p0 + ts::kGemmKc);
        // Panels after the first start from C — the same association the
        // GEMM micro-kernel uses when it reloads the C tile per K-panel.
        float acc[RT][kDirectChunk] = {};
        if (p0 != 0) {
          for (int r = 0; r < RT; ++r) {
            const float* c = crow + (r0 + r) * osp;
            for (int64_t j = 0; j < len; ++j) acc[r][j] = c[j];
          }
        }
        for (int64_t ci = p0 / khkw; ci < cin && ci * khkw < p1; ++ci) {
          const int64_t kbase = ci * khkw;
          const int64_t t0 = std::max<int64_t>(p0 - kbase, 0);
          const int64_t t1 = std::min(p1 - kbase, khkw);
          const float* xplane = pin + ci * plane;
          int64_t ky = t0 / kw;
          int64_t kx = t0 - ky * kw;
          for (int64_t t = t0; t < t1; ++t) {
            const int64_t iy = oy + ky - pad;
            // Vertically padded taps are exact zeros in the column matrix;
            // their +0 terms never change an accumulator, so they only
            // advance the tap counters.
            if (iy >= 0 && iy < h) {
              const float* __restrict x = xplane + iy * pws + ox0 + kx;
              const float* __restrict wr = wd + (kbase + t) * cout + r0;
              for (int r = 0; r < RT; ++r) {
                const float wv = wr[r];
                for (int64_t j = 0; j < kDirectChunk; ++j) {
                  acc[r][j] += wv * x[j];
                }
              }
            }
            if (++kx == kw) {
              kx = 0;
              ++ky;
            }
          }
        }
        // Panel C update: the first panel stores, later panels accumulate —
        // the K-panel grouping GemmDriver applies.
        for (int r = 0; r < RT; ++r) {
          float* __restrict c = crow + (r0 + r) * osp;
          for (int64_t j = 0; j < len; ++j) c[j] = acc[r][j];
        }
      }
    }
  }
}

#endif  // __AVX512F__

void RunConvDirect(const Step& step, float* const* bufs, const Plan& plan) {
  const StepGeom& geom = step.geom;
  const PackedWeight& pw = plan.packed_weights[step.packed];
  const float* pin = bufs[step.in[0]];
  float* po = bufs[step.out];
  float* scratch = bufs[step.scratch];
  const int64_t pad = step.attrs.i1;
  const int64_t osp = geom.oh * geom.ow;
  const int64_t pws = DirectPaddedWidth(geom.w, pad);
  const int64_t padded_elems = geom.cin * geom.h * pws;
  const auto act = static_cast<ts::ActKind>(step.spec_act);
  const float* wd = pw.f32.data();

  util::ActivePool().ParallelFor(0, geom.batch, 1,
                                 [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      // Zero-pad the sample: `pad` columns each side plus chunk slack,
      // every padded row written exactly once.
      float* ppad = scratch + b * padded_elems;
      const float* sin = pin + b * geom.cin * geom.h * geom.w;
      for (int64_t ci = 0; ci < geom.cin; ++ci) {
        for (int64_t y = 0; y < geom.h; ++y) {
          float* row = ppad + (ci * geom.h + y) * pws;
          for (int64_t x = 0; x < pad; ++x) row[x] = 0.0f;
          std::memcpy(row + pad, sin + (ci * geom.h + y) * geom.w,
                      sizeof(float) * static_cast<size_t>(geom.w));
          for (int64_t x = pad + geom.w; x < pws; ++x) row[x] = 0.0f;
        }
      }
      float* cbase = po + b * geom.cout * osp;
      int64_t r0 = 0;
      while (r0 < geom.cout) {
        const int64_t rem = geom.cout - r0;
        if (rem >= 8) {
          DirectConvTileSweep<8>(wd, ppad, cbase, r0, geom.cout, geom.cin,
                                 geom.h, pws, geom.kh, geom.kw, pad, geom.oh,
                                 geom.ow);
          r0 += 8;
        } else if (rem >= 4) {
          DirectConvTileSweep<4>(wd, ppad, cbase, r0, geom.cout, geom.cin,
                                 geom.h, pws, geom.kh, geom.kw, pad, geom.oh,
                                 geom.ow);
          r0 += 4;
        } else if (rem >= 2) {
          DirectConvTileSweep<2>(wd, ppad, cbase, r0, geom.cout, geom.cin,
                                 geom.h, pws, geom.kh, geom.kw, pad, geom.oh,
                                 geom.ow);
          r0 += 2;
        } else {
          DirectConvTileSweep<1>(wd, ppad, cbase, r0, geom.cout, geom.cin,
                                 geom.h, pws, geom.kh, geom.kw, pad, geom.oh,
                                 geom.ow);
          r0 += 1;
        }
      }
      if (pw.has_epilogue) {
        for (int64_t c = 0; c < geom.cout; ++c) {
          BiasActRow(cbase + c * osp, osp, pw.bias[c], act, step.spec_alpha);
        }
      }
    }
  });
}

void RunDensePacked(const Step& step, float* const* bufs, const Plan& plan) {
  const StepGeom& geom = step.geom;
  const PackedWeight& pw = plan.packed_weights[step.packed];
  const float* px = bufs[step.in[0]];
  float* po = bufs[step.out];
  const int64_t m = geom.m;
  const int64_t k = geom.k;
  const int64_t n = geom.cols;
  const ts::GemmTile tile = ts::GemmTileShape();
  const int64_t mr = tile.mr;
  const int64_t nr = tile.nr;
  const int64_t ceil_n = (n + nr - 1) / nr * nr;
  const auto act = static_cast<ts::ActKind>(step.spec_act);
  std::memset(po, 0, sizeof(float) * static_cast<size_t>(m * n));
  for (int64_t kp = 0; kp < k; kp += ts::kGemmKc) {
    const int64_t kc = std::min(ts::kGemmKc, k - kp);
    for (int64_t js = 0; js < n; js += nr) {
      // One packed strip, reused across all row panels.
      const float* bp = pw.f32.data() + kp * ceil_n + (js / nr) * kc * nr;
      for (int64_t i0 = 0; i0 < m; i0 += mr) {
        ts::GemmMicroKernelAcc(px + i0 * k + kp, /*a_rs=*/k, /*a_ks=*/1, bp,
                               po + i0 * n + js, n, std::min(mr, m - i0),
                               std::min(nr, n - js), kc);
      }
    }
  }
  if (pw.has_epilogue) {
    for (int64_t i = 0; i < m; ++i) {
      BiasActRowPerCol(po + i * n, pw.bias.data(), n, act, step.spec_alpha);
    }
  }
}

}  // namespace

void RunStep(const Step& step, float* const* bufs, const Plan& plan) {
  switch (step.spec) {
    case SpecKind::kNone:
      break;
    case SpecKind::kConvDirect:
      RunConvDirect(step, bufs, plan);
      return;
    case SpecKind::kDensePacked:
      RunDensePacked(step, bufs, plan);
      return;
  }
  switch (step.kind) {
    case ag::OpKind::kAdd:
      BinaryMap(step, bufs, [](float x, float y) { return x + y; });
      break;
    case ag::OpKind::kSub:
      BinaryMap(step, bufs, [](float x, float y) { return x - y; });
      break;
    case ag::OpKind::kMul:
      BinaryMap(step, bufs, [](float x, float y) { return x * y; });
      break;
    case ag::OpKind::kDiv:
      BinaryMap(step, bufs, [](float x, float y) { return x / y; });
      break;
    case ag::OpKind::kAddScalar: {
      const float s = step.attrs.f0;
      UnaryMap(step, bufs, [s](float x) { return x + s; });
      break;
    }
    case ag::OpKind::kMulScalar: {
      const float s = step.attrs.f0;
      UnaryMap(step, bufs, [s](float x) { return x * s; });
      break;
    }
    case ag::OpKind::kBiasAct:
      RunBiasAct(step, bufs);
      break;
    case ag::OpKind::kMulAddFused: {
      const float* pa = bufs[step.in[0]];
      const float* pb = bufs[step.in[1]];
      const float* pc = bufs[step.in[2]];
      float* po = bufs[step.out];
      ts::MaybeParallelFor(step.geom.n, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) po[i] = pa[i] + (pb[i] * pc[i]);
      });
      break;
    }
    case ag::OpKind::kExp:
      UnaryMap(step, bufs, [](float x) { return std::exp(x); });
      break;
    case ag::OpKind::kSqrt:
      UnaryMap(step, bufs, [](float x) { return std::sqrt(x); });
      break;
    case ag::OpKind::kTanh:
      UnaryMap(step, bufs, [](float x) { return std::tanh(x); });
      break;
    case ag::OpKind::kLeakyRelu: {
      const float alpha = step.attrs.f0;
      UnaryMap(step, bufs,
               [alpha](float x) { return x > 0.0f ? x : alpha * x; });
      break;
    }
    case ag::OpKind::kSigmoid:
      UnaryMap(step, bufs, [](float x) { return ts::SigmoidScalar(x); });
      break;
    case ag::OpKind::kSquare:
      UnaryMap(step, bufs, [](float x) { return x * x; });
      break;
    case ag::OpKind::kClamp: {
      const float lo = step.attrs.f0;
      const float hi = step.attrs.f1;
      UnaryMap(step, bufs, [lo, hi](float x) {
        return std::min(std::max(x, lo), hi);
      });
      break;
    }
    case ag::OpKind::kSumAxis:
      RunSumAxis(step, bufs);
      break;
    case ag::OpKind::kMatMul:
      RunMatMul(step, bufs);
      break;
    case ag::OpKind::kMatMulBatched:
      RunMatMulBatched(step, bufs);
      break;
    case ag::OpKind::kTransposeLast2:
      RunTransposeLast2(step, bufs);
      break;
    case ag::OpKind::kSoftmax:
      RunSoftmax(step, bufs);
      break;
    case ag::OpKind::kConv2d:
      RunConv2d(step, bufs);
      break;
    case ag::OpKind::kConcat:
      RunConcat(step, bufs);
      break;
    case ag::OpKind::kSlice:
      RunSlice(step, bufs);
      break;
    case ag::OpKind::kLeaf:
    case ag::OpKind::kReshape:
    case ag::OpKind::kSumAll:
      MUSE_CHECK(false) << "non-executable step kind for op "
                        << step.op_name;
      break;
  }
}

int64_t DirectConvScratchElems(const StepGeom& geom, int64_t pad) {
  return geom.batch * geom.cin * geom.h * DirectPaddedWidth(geom.w, pad);
}

}  // namespace musenet::infer
