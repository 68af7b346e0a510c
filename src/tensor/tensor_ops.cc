#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/gemm.h"
#include "tensor/kernel_util.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace musenet::tensor {

namespace {

/// One call and the flop count of a GEMM entry point. Registry lookups
/// resolve once; afterwards this is two relaxed fetch_adds on thread-striped
/// shards, cheap enough to leave on unconditionally.
void NoteGemm(int64_t flops) {
  static obs::Counter& calls = obs::GetCounter("gemm.calls");
  static obs::Counter& total_flops = obs::GetCounter("gemm.flops");
  calls.Add();
  total_flops.Add(flops);
}

/// Strides for reading an operand of shape `s` as if it had the broadcast
/// result shape `out` (rank-aligned from the right); broadcast axes get
/// stride 0 so the same element is re-read.
std::vector<int64_t> BroadcastStrides(const Shape& s, const Shape& out) {
  std::vector<int64_t> strides(out.rank(), 0);
  const std::vector<int64_t> own = s.Strides();
  const int offset = out.rank() - s.rank();
  for (int axis = 0; axis < s.rank(); ++axis) {
    strides[offset + axis] = s.dim(axis) == 1 ? 0 : own[axis];
  }
  return strides;
}

/// Lengths of the trailing output run over which an operand's offset stays
/// fixed (all broadcast strides 0) or advances by exactly 1 per element
/// (contiguous suffix). Both lengths are products of trailing output dims,
/// so the minimum across operands still lands on clean run boundaries.
struct TrailingRuns {
  int64_t fixed = 1;
  int64_t contig = 1;
};

TrailingRuns ComputeTrailingRuns(const std::vector<int64_t>& strides,
                                 const Shape& out) {
  TrailingRuns runs;
  for (int axis = out.rank() - 1; axis >= 0; --axis) {
    if (out.dim(axis) != 1 && strides[axis] != 0) break;
    runs.fixed *= out.dim(axis);
  }
  int64_t expect = 1;
  for (int axis = out.rank() - 1; axis >= 0; --axis) {
    if (out.dim(axis) != 1 && strides[axis] != expect) break;
    runs.contig *= out.dim(axis);
    expect *= out.dim(axis);
  }
  return runs;
}

/// Number of leading axes left outside a trailing run of length `run`.
int OuterRank(const Shape& out, int64_t run) {
  int axis = out.rank();
  int64_t covered = 1;
  while (axis > 0 && covered < run) covered *= out.dim(--axis);
  return axis;
}

template <typename Fn>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, Fn fn) {
  // Fast path: identical shapes.
  if (a.shape() == b.shape()) {
    Tensor out = Tensor::Uninitialized(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.mutable_data();
    MaybeParallelFor(a.num_elements(), [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = fn(pa[i], pb[i]);
    });
    return out;
  }
  // Fast path: scalar operand.
  if (b.num_elements() == 1) {
    Tensor out = Tensor::Uninitialized(a.shape());
    const float s = b.flat(0);
    const float* pa = a.data();
    float* po = out.mutable_data();
    MaybeParallelFor(a.num_elements(), [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = fn(pa[i], s);
    });
    return out;
  }
  if (a.num_elements() == 1) {
    Tensor out = Tensor::Uninitialized(b.shape());
    const float s = a.flat(0);
    const float* pb = b.data();
    float* po = out.mutable_data();
    MaybeParallelFor(b.num_elements(), [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = fn(s, pb[i]);
    });
    return out;
  }

  const Shape out_shape = Shape::BroadcastResult(a.shape(), b.shape());
  Tensor out = Tensor::Uninitialized(out_shape);
  const std::vector<int64_t> sa = BroadcastStrides(a.shape(), out_shape);
  const std::vector<int64_t> sb = BroadcastStrides(b.shape(), out_shape);
  const int rank = out_shape.rank();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.mutable_data();

  // Blocked path: whenever both operands are uniform — fixed or contiguous —
  // over a trailing run, the inner loop is a plain vector op and the odometer
  // only ticks once per run. This covers the training hot spots (per-channel
  // scale/shift [1,C,1,1] and keepdim-sum gradients [..,1]).
  const TrailingRuns ta = ComputeTrailingRuns(sa, out_shape);
  const TrailingRuns tb = ComputeTrailingRuns(sb, out_shape);
  const int64_t run = std::min(std::max(ta.fixed, ta.contig),
                               std::max(tb.fixed, tb.contig));
  if (run > 1) {
    const bool a_fixed = ta.fixed >= run;
    const bool b_fixed = tb.fixed >= run;
    const int outer_rank = OuterRank(out_shape, run);
    const int64_t num_runs = out_shape.num_elements() / run;
    MaybeParallelFor(num_runs, [&](int64_t lo, int64_t hi) {
      std::vector<int64_t> index(outer_rank, 0);
      int64_t offset_a = 0;
      int64_t offset_b = 0;
      int64_t rem = lo;
      for (int axis = outer_rank - 1; axis >= 0; --axis) {
        index[axis] = rem % out_shape.dim(axis);
        rem /= out_shape.dim(axis);
        offset_a += index[axis] * sa[axis];
        offset_b += index[axis] * sb[axis];
      }
      for (int64_t r = lo; r < hi; ++r) {
        float* dst = po + r * run;
        const float* ra = pa + offset_a;
        const float* rb = pb + offset_b;
        if (a_fixed && b_fixed) {
          const float v = fn(*ra, *rb);
          for (int64_t i = 0; i < run; ++i) dst[i] = v;
        } else if (b_fixed) {
          const float s = *rb;
          for (int64_t i = 0; i < run; ++i) dst[i] = fn(ra[i], s);
        } else if (a_fixed) {
          const float s = *ra;
          for (int64_t i = 0; i < run; ++i) dst[i] = fn(s, rb[i]);
        } else {
          for (int64_t i = 0; i < run; ++i) dst[i] = fn(ra[i], rb[i]);
        }
        for (int axis = outer_rank - 1; axis >= 0; --axis) {
          ++index[axis];
          offset_a += sa[axis];
          offset_b += sb[axis];
          if (index[axis] < out_shape.dim(axis)) break;
          index[axis] = 0;
          offset_a -= sa[axis] * out_shape.dim(axis);
          offset_b -= sb[axis] * out_shape.dim(axis);
        }
      }
    });
    return out;
  }

  MaybeParallelFor(out_shape.num_elements(), [&](int64_t lo, int64_t hi) {
    // Seed the odometer at flat index `lo`.
    std::vector<int64_t> index(rank, 0);
    int64_t offset_a = 0;
    int64_t offset_b = 0;
    int64_t rem = lo;
    for (int axis = rank - 1; axis >= 0; --axis) {
      index[axis] = rem % out_shape.dim(axis);
      rem /= out_shape.dim(axis);
      offset_a += index[axis] * sa[axis];
      offset_b += index[axis] * sb[axis];
    }
    for (int64_t i = lo; i < hi; ++i) {
      po[i] = fn(pa[offset_a], pb[offset_b]);
      // Odometer increment over the output multi-index.
      for (int axis = rank - 1; axis >= 0; --axis) {
        ++index[axis];
        offset_a += sa[axis];
        offset_b += sb[axis];
        if (index[axis] < out_shape.dim(axis)) break;
        index[axis] = 0;
        offset_a -= sa[axis] * out_shape.dim(axis);
        offset_b -= sb[axis] * out_shape.dim(axis);
      }
    }
  });
  return out;
}

template <typename Fn>
Tensor Unary(const Tensor& a, Fn fn) {
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  float* po = out.mutable_data();
  MaybeParallelFor(a.num_elements(), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = fn(pa[i]);
  });
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x + y; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x - y; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x * y; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x / y; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return Unary(a, [s](float x) { return x + s; });
}

Tensor MulScalar(const Tensor& a, float s) {
  return Unary(a, [s](float x) { return x * s; });
}

Tensor Neg(const Tensor& a) {
  return Unary(a, [](float x) { return -x; });
}

Tensor Exp(const Tensor& a) {
  return Unary(a, [](float x) { return std::exp(x); });
}

Tensor Sqrt(const Tensor& a) {
  return Unary(a, [](float x) { return std::sqrt(x); });
}

Tensor Tanh(const Tensor& a) {
  return Unary(a, [](float x) { return std::tanh(x); });
}

Tensor LeakyRelu(const Tensor& a, float alpha) {
  return Unary(a, [alpha](float x) { return x > 0.0f ? x : alpha * x; });
}

Tensor Sigmoid(const Tensor& a) {
  return Unary(a, [](float x) { return SigmoidScalar(x); });
}

Tensor Square(const Tensor& a) {
  return Unary(a, [](float x) { return x * x; });
}

Tensor Clamp(const Tensor& a, float lo, float hi) {
  MUSE_CHECK_LE(lo, hi);
  return Unary(a, [lo, hi](float x) { return std::min(std::max(x, lo), hi); });
}

Tensor SumAll(const Tensor& a) {
  const float* pa = a.data();
  const int64_t n = a.num_elements();
  // Per-chunk partials combined in chunk order. Chunk boundaries are fixed
  // by kParallelGrain, so the summation tree — and the result — is the same
  // at every thread count.
  const int64_t num_chunks =
      n >= kParallelThreshold ? (n + kParallelGrain - 1) / kParallelGrain : 1;
  std::vector<double> partial(static_cast<size_t>(num_chunks), 0.0);
  MaybeParallelFor(n, [&](int64_t lo, int64_t hi) {
    double acc = 0.0;
    for (int64_t i = lo; i < hi; ++i) acc += pa[i];
    partial[static_cast<size_t>(lo / kParallelGrain)] = acc;
  });
  double total = 0.0;
  for (const double p : partial) total += p;
  return Tensor::Scalar(static_cast<float>(total));
}

Tensor MeanAll(const Tensor& a) {
  return Tensor::Scalar(SumAll(a).scalar() /
                        static_cast<float>(a.num_elements()));
}

NonFiniteReport CountNonFinite(const Tensor& a) {
  const float* pa = a.data();
  const int64_t n = a.num_elements();
  const int64_t num_chunks =
      n >= kParallelThreshold ? (n + kParallelGrain - 1) / kParallelGrain : 1;
  std::vector<int64_t> counts(static_cast<size_t>(num_chunks), 0);
  std::vector<int64_t> firsts(static_cast<size_t>(num_chunks), -1);
  MaybeParallelFor(n, [&](int64_t lo, int64_t hi) {
    int64_t count = 0;
    int64_t first = -1;
    for (int64_t i = lo; i < hi; ++i) {
      if (!std::isfinite(pa[i])) {
        ++count;
        if (first < 0) first = i;
      }
    }
    const size_t chunk = static_cast<size_t>(lo / kParallelGrain);
    counts[chunk] = count;
    firsts[chunk] = first;
  });
  NonFiniteReport report;
  for (size_t c = 0; c < counts.size(); ++c) {
    report.count += counts[c];
    if (report.first_index < 0 && firsts[c] >= 0) {
      report.first_index = firsts[c];
    }
  }
  return report;
}

float MaxValue(const Tensor& a) {
  const float* pa = a.data();
  float best = pa[0];
  const int64_t n = a.num_elements();
  for (int64_t i = 1; i < n; ++i) best = std::max(best, pa[i]);
  return best;
}

float MinValue(const Tensor& a) {
  const float* pa = a.data();
  float best = pa[0];
  const int64_t n = a.num_elements();
  for (int64_t i = 1; i < n; ++i) best = std::min(best, pa[i]);
  return best;
}

Tensor Sum(const Tensor& a, int axis, bool keepdims) {
  MUSE_CHECK_GE(axis, 0);
  MUSE_CHECK_LT(axis, a.rank());
  // Decompose the index space as outer × axis × inner.
  int64_t outer = 1;
  for (int i = 0; i < axis; ++i) outer *= a.dim(i);
  const int64_t mid = a.dim(axis);
  int64_t inner = 1;
  for (int i = axis + 1; i < a.rank(); ++i) inner *= a.dim(i);

  std::vector<int64_t> out_dims;
  for (int i = 0; i < a.rank(); ++i) {
    if (i == axis) {
      if (keepdims) out_dims.push_back(1);
    } else {
      out_dims.push_back(a.dim(i));
    }
  }
  Tensor out = Tensor::Uninitialized(Shape(std::move(out_dims)));
  const float* pa = a.data();
  float* po = out.mutable_data();
  // Parallel over output elements; each element's reduction over `mid` stays
  // a single sequential chain, so results are thread-count independent.
  MaybeParallelFor(outer * inner, [&](int64_t lo, int64_t hi) {
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
  return out;
}

Tensor Mean(const Tensor& a, int axis, bool keepdims) {
  return MulScalar(Sum(a, axis, keepdims),
                   1.0f / static_cast<float>(a.dim(axis)));
}

Tensor ReduceToShape(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  MUSE_CHECK(Shape::BroadcastCompatible(t.shape(), target))
      << t.shape().ToString() << " vs " << target.ToString();
  Tensor current = t;
  // Collapse leading extra axes.
  while (current.rank() > target.rank()) {
    current = Sum(current, 0, /*keepdims=*/false);
  }
  // Sum axes where the target kept size 1.
  for (int axis = 0; axis < target.rank(); ++axis) {
    if (target.dim(axis) == 1 && current.dim(axis) != 1) {
      current = Sum(current, axis, /*keepdims=*/true);
    }
  }
  MUSE_CHECK(current.shape() == target)
      << "reduced to " << current.shape().ToString() << ", wanted "
      << target.ToString();
  return current;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  MUSE_CHECK_EQ(a.rank(), 2);
  MUSE_CHECK_EQ(b.rank(), 2);
  MUSE_CHECK_EQ(a.dim(1), b.dim(0))
      << a.shape().ToString() << " x " << b.shape().ToString();
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  const int64_t n = b.dim(1);
  Tensor out(Shape({m, n}));
  // Cache-blocked, register-tiled, row-parallel GEMM; out is
  // zero-initialized so accumulate == assign.
  obs::ScopedSpan span("gemm.MatMul", "flops", 2 * m * n * k);
  NoteGemm(2 * m * n * k);
  GemmAccF32(m, n, k, a.data(), k, b.data(), n, out.mutable_data(), n);
  return out;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  MUSE_CHECK_EQ(a.rank(), 2);
  MUSE_CHECK_EQ(b.rank(), 2);
  MUSE_CHECK_EQ(a.dim(1), b.dim(1))
      << a.shape().ToString() << " x " << b.shape().ToString() << "^T";
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  const int64_t n = b.dim(0);
  Tensor out(Shape({m, n}));
  obs::ScopedSpan span("gemm.MatMulTransB", "flops", 2 * m * n * k);
  NoteGemm(2 * m * n * k);
  GemmAccF32TransB(m, n, k, a.data(), k, b.data(), k, out.mutable_data(), n);
  return out;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  MUSE_CHECK_EQ(a.rank(), 2);
  MUSE_CHECK_EQ(b.rank(), 2);
  MUSE_CHECK_EQ(a.dim(0), b.dim(0))
      << a.shape().ToString() << "^T x " << b.shape().ToString();
  const int64_t m = a.dim(1);
  const int64_t k = a.dim(0);
  const int64_t n = b.dim(1);
  Tensor out(Shape({m, n}));
  obs::ScopedSpan span("gemm.MatMulTransA", "flops", 2 * m * n * k);
  NoteGemm(2 * m * n * k);
  GemmAccF32TransA(m, n, k, a.data(), m, b.data(), n, out.mutable_data(), n);
  return out;
}

Tensor MatMulBatched(const Tensor& a, const Tensor& b) {
  MUSE_CHECK_EQ(a.rank(), 3);
  MUSE_CHECK_EQ(b.rank(), 3);
  MUSE_CHECK_EQ(a.dim(0), b.dim(0));
  MUSE_CHECK_EQ(a.dim(2), b.dim(1));
  const int64_t batch = a.dim(0);
  const int64_t m = a.dim(1);
  const int64_t k = a.dim(2);
  const int64_t n = b.dim(2);
  obs::ScopedSpan span("gemm.MatMulBatched", "flops", 2 * batch * m * n * k);
  NoteGemm(2 * batch * m * n * k);
  Tensor out(Shape({batch, m, n}));
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.mutable_data();
  // Per-sample fan-out: each batch slice is an independent GEMM (the nested
  // GEMM row-parallelism degrades to inline inside a pool worker).
  util::ActivePool().ParallelFor(0, batch, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t bi = b0; bi < b1; ++bi) {
      GemmAccF32(m, n, k, pa + bi * m * k, k, pb + bi * k * n, n,
                 po + bi * m * n, n);
    }
  });
  return out;
}

Tensor MatMulBatchedTransB(const Tensor& a, const Tensor& b) {
  MUSE_CHECK_EQ(a.rank(), 3);
  MUSE_CHECK_EQ(b.rank(), 3);
  MUSE_CHECK_EQ(a.dim(0), b.dim(0));
  MUSE_CHECK_EQ(a.dim(2), b.dim(2));
  const int64_t batch = a.dim(0);
  const int64_t m = a.dim(1);
  const int64_t k = a.dim(2);
  const int64_t n = b.dim(1);
  obs::ScopedSpan span("gemm.MatMulBatchedTransB", "flops", 2 * batch * m * n * k);
  NoteGemm(2 * batch * m * n * k);
  Tensor out(Shape({batch, m, n}));
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.mutable_data();
  util::ActivePool().ParallelFor(0, batch, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t bi = b0; bi < b1; ++bi) {
      GemmAccF32TransB(m, n, k, pa + bi * m * k, k, pb + bi * n * k, k,
                       po + bi * m * n, n);
    }
  });
  return out;
}

Tensor MatMulBatchedTransA(const Tensor& a, const Tensor& b) {
  MUSE_CHECK_EQ(a.rank(), 3);
  MUSE_CHECK_EQ(b.rank(), 3);
  MUSE_CHECK_EQ(a.dim(0), b.dim(0));
  MUSE_CHECK_EQ(a.dim(1), b.dim(1));
  const int64_t batch = a.dim(0);
  const int64_t m = a.dim(2);
  const int64_t k = a.dim(1);
  const int64_t n = b.dim(2);
  obs::ScopedSpan span("gemm.MatMulBatchedTransA", "flops", 2 * batch * m * n * k);
  NoteGemm(2 * batch * m * n * k);
  Tensor out(Shape({batch, m, n}));
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.mutable_data();
  util::ActivePool().ParallelFor(0, batch, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t bi = b0; bi < b1; ++bi) {
      GemmAccF32TransA(m, n, k, pa + bi * k * m, m, pb + bi * k * n, n,
                       po + bi * m * n, n);
    }
  });
  return out;
}

Tensor TransposeLast2(const Tensor& a) {
  MUSE_CHECK_EQ(a.rank(), 3);
  const int64_t batch = a.dim(0);
  const int64_t m = a.dim(1);
  const int64_t n = a.dim(2);
  Tensor out = Tensor::Uninitialized(Shape({batch, n, m}));
  const float* pa = a.data();
  float* po = out.mutable_data();
  for (int64_t b = 0; b < batch; ++b) {
    const float* src = pa + b * m * n;
    float* dst = po + b * m * n;
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) dst[j * m + i] = src[i * n + j];
    }
  }
  return out;
}

Tensor SoftmaxLastAxis(const Tensor& a) {
  MUSE_CHECK_GE(a.rank(), 1);
  const int64_t n = a.dim(a.rank() - 1);
  const int64_t rows = a.num_elements() / n;
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  float* po = out.mutable_data();
  // Parallel over rows; each row's max/sum/normalize stays sequential.
  MaybeParallelFor(rows, [&](int64_t lo, int64_t hi) {
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
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  MUSE_CHECK(!parts.empty());
  const Shape& first = parts[0].shape();
  MUSE_CHECK_GE(axis, 0);
  MUSE_CHECK_LT(axis, first.rank());
  int64_t axis_total = 0;
  for (const Tensor& p : parts) {
    MUSE_CHECK_EQ(p.rank(), first.rank());
    for (int i = 0; i < first.rank(); ++i) {
      if (i != axis) {
        MUSE_CHECK_EQ(p.dim(i), first.dim(i))
            << "Concat mismatch on axis " << i;
      }
    }
    axis_total += p.dim(axis);
  }
  std::vector<int64_t> out_dims = first.dims();
  out_dims[axis] = axis_total;
  Tensor out = Tensor::Uninitialized(Shape(std::move(out_dims)));

  int64_t outer = 1;
  for (int i = 0; i < axis; ++i) outer *= first.dim(i);
  int64_t inner = 1;
  for (int i = axis + 1; i < first.rank(); ++i) inner *= first.dim(i);

  float* po = out.mutable_data();
  const int64_t out_axis_stride = axis_total * inner;
  int64_t axis_offset = 0;
  for (const Tensor& p : parts) {
    const int64_t mid = p.dim(axis);
    const float* pp = p.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(pp + o * mid * inner, pp + (o + 1) * mid * inner,
                po + o * out_axis_stride + axis_offset * inner);
    }
    axis_offset += mid;
  }
  return out;
}

Tensor Slice(const Tensor& a, int axis, int64_t start, int64_t len) {
  MUSE_CHECK_GE(axis, 0);
  MUSE_CHECK_LT(axis, a.rank());
  MUSE_CHECK_GE(start, 0);
  MUSE_CHECK_GT(len, 0);
  MUSE_CHECK_LE(start + len, a.dim(axis));
  std::vector<int64_t> out_dims = a.shape().dims();
  out_dims[axis] = len;
  Tensor out = Tensor::Uninitialized(Shape(std::move(out_dims)));

  int64_t outer = 1;
  for (int i = 0; i < axis; ++i) outer *= a.dim(i);
  int64_t inner = 1;
  for (int i = axis + 1; i < a.rank(); ++i) inner *= a.dim(i);
  const int64_t mid = a.dim(axis);

  const float* pa = a.data();
  float* po = out.mutable_data();
  for (int64_t o = 0; o < outer; ++o) {
    std::copy(pa + (o * mid + start) * inner,
              pa + (o * mid + start + len) * inner, po + o * len * inner);
  }
  return out;
}

Tensor BroadcastTo(const Tensor& a, const Shape& target) {
  if (a.shape() == target) return a;
  MUSE_CHECK(Shape::BroadcastCompatible(a.shape(), target) &&
             Shape::BroadcastResult(a.shape(), target) == target)
      << "cannot broadcast " << a.shape().ToString() << " to "
      << target.ToString();
  // One pass instead of Add(a, Zeros(target)) — no zero-filled temporary.
  // `+ 0.0f` keeps the old Add semantics exactly (it normalizes -0 to +0).
  Tensor out = Tensor::Uninitialized(target);
  float* po = out.mutable_data();
  const float* pa = a.data();
  if (a.num_elements() == 1) {
    const float s = a.flat(0);
    MaybeParallelFor(target.num_elements(), [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = s + 0.0f;
    });
    return out;
  }
  const std::vector<int64_t> sa = BroadcastStrides(a.shape(), target);
  const int rank = target.rank();

  // Blocked path (see BroadcastBinary): fill or copy whole trailing runs.
  const TrailingRuns ta = ComputeTrailingRuns(sa, target);
  const int64_t run = std::max(ta.fixed, ta.contig);
  if (run > 1) {
    const bool fixed = ta.fixed >= run;
    const int outer_rank = OuterRank(target, run);
    const int64_t num_runs = target.num_elements() / run;
    MaybeParallelFor(num_runs, [&](int64_t lo, int64_t hi) {
      std::vector<int64_t> index(outer_rank, 0);
      int64_t offset_a = 0;
      int64_t rem = lo;
      for (int axis = outer_rank - 1; axis >= 0; --axis) {
        index[axis] = rem % target.dim(axis);
        rem /= target.dim(axis);
        offset_a += index[axis] * sa[axis];
      }
      for (int64_t r = lo; r < hi; ++r) {
        float* dst = po + r * run;
        const float* src = pa + offset_a;
        if (fixed) {
          const float v = *src + 0.0f;
          for (int64_t i = 0; i < run; ++i) dst[i] = v;
        } else {
          for (int64_t i = 0; i < run; ++i) dst[i] = src[i] + 0.0f;
        }
        for (int axis = outer_rank - 1; axis >= 0; --axis) {
          ++index[axis];
          offset_a += sa[axis];
          if (index[axis] < target.dim(axis)) break;
          index[axis] = 0;
          offset_a -= sa[axis] * target.dim(axis);
        }
      }
    });
    return out;
  }

  MaybeParallelFor(target.num_elements(), [&](int64_t lo, int64_t hi) {
    std::vector<int64_t> index(rank, 0);
    int64_t offset_a = 0;
    int64_t rem = lo;
    for (int axis = rank - 1; axis >= 0; --axis) {
      index[axis] = rem % target.dim(axis);
      rem /= target.dim(axis);
      offset_a += index[axis] * sa[axis];
    }
    for (int64_t i = lo; i < hi; ++i) {
      po[i] = pa[offset_a] + 0.0f;
      for (int axis = rank - 1; axis >= 0; --axis) {
        ++index[axis];
        offset_a += sa[axis];
        if (index[axis] < target.dim(axis)) break;
        index[axis] = 0;
        offset_a -= sa[axis] * target.dim(axis);
      }
    }
  });
  return out;
}

}  // namespace musenet::tensor
