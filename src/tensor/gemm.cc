#include "tensor/gemm.h"

#include <algorithm>
#include <vector>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

#include "tensor/storage_pool.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace musenet::tensor {

namespace {

// Micro-kernel tile. NR spans whole SIMD vectors so the j-loops vectorize;
// MR×(NR/width) accumulators must fit the register file, hence the
// ISA-dependent sizing.
#if defined(__AVX512F__)
constexpr int64_t kMr = 8;
constexpr int64_t kNr = 32;
#elif defined(__AVX2__) || defined(__AVX__)
constexpr int64_t kMr = 4;
constexpr int64_t kNr = 16;
#else
constexpr int64_t kMr = 4;
constexpr int64_t kNr = 8;
#endif

/// K-panel height: one packed panel strip (kKc × kNr floats) stays L1/L2
/// resident while the micro-kernel streams over it.
constexpr int64_t kKc = 256;

/// Rows of C per ParallelFor chunk. Fixed (never derived from the thread
/// count) so chunk boundaries — and therefore results — are identical at
/// every MUSENET_NUM_THREADS.
constexpr int64_t kRowChunk = 32;

/// Below this flop count the packing overhead outweighs the tiled kernel;
/// fall through to the plain i-k-j nest (same accumulation order, so the
/// cutover is invisible numerically).
constexpr int64_t kSmallProblem = 32 * 1024;

// Operands are addressed by element strides so the same kernels serve the
// plain and transposed layouts: A[i][kk] = a[i*a_rs + kk*a_ks] and
// B[kk][j] = b[kk*b_ks + j*b_ns]. The transposed variants only change which
// stride is 1 — values, accumulation order and results are exactly those of
// materializing the transpose first.

void GemmSmall(int64_t m, int64_t n, int64_t k, const float* a, int64_t a_rs,
               int64_t a_ks, const float* b, int64_t b_ks, int64_t b_ns,
               float* c, int64_t ldc) {
  if (a_ks == 1 && b_ns == 1) {
    // Contiguous fast path: the j-loop vectorizes.
    for (int64_t i = 0; i < m; ++i) {
      const float* a_row = a + i * a_rs;
      float* c_row = c + i * ldc;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = a_row[kk];
        const float* b_row = b + kk * b_ks;
        for (int64_t j = 0; j < n; ++j) c_row[j] += av * b_row[j];
      }
    }
    return;
  }
  for (int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * ldc;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = a[i * a_rs + kk * a_ks];
      const float* b_row = b + kk * b_ks;
      for (int64_t j = 0; j < n; ++j) c_row[j] += av * b_row[j * b_ns];
    }
  }
}

/// Packs B[0:kc, 0:n] into kNr-wide column strips, k-major within a strip,
/// zero-padding the last strip to full width. Packing only copies values, so
/// it cannot perturb results.
void PackB(const float* b, int64_t b_ks, int64_t b_ns, int64_t kc, int64_t n,
           float* out) {
  for (int64_t js = 0; js < n; js += kNr) {
    const int64_t nr = std::min(kNr, n - js);
    float* strip = out + (js / kNr) * kc * kNr;
    if (b_ns == 1) {
      for (int64_t kk = 0; kk < kc; ++kk) {
        const float* src = b + kk * b_ks + js;
        float* dst = strip + kk * kNr;
        for (int64_t j = 0; j < nr; ++j) dst[j] = src[j];
        for (int64_t j = nr; j < kNr; ++j) dst[j] = 0.0f;
      }
    } else {
      // Transposed source: j-major so the inner kk loop reads contiguously
      // (b_ks == 1 here) and only the writes stride — stores drain through
      // the store buffer while strided loads would stall.
      for (int64_t j = 0; j < nr; ++j) {
        const float* src = b + (js + j) * b_ns;
        float* dst = strip + j;
        for (int64_t kk = 0; kk < kc; ++kk) dst[kk * kNr] = src[kk * b_ks];
      }
      if (nr < kNr) {
        for (int64_t kk = 0; kk < kc; ++kk) {
          float* dst = strip + kk * kNr;
          for (int64_t j = nr; j < kNr; ++j) dst[j] = 0.0f;
        }
      }
    }
  }
}

#if defined(__AVX512F__)

/// MR×32 tile (full strip width) with explicit 512-bit FMAs. MR is a
/// template parameter so every variant has constant loop bounds and the
/// accumulators are named vector objects — the register allocator cannot
/// spill the tile (the auto-vectorized array form spilled half of it to the
/// stack). Same per-element accumulation order and contraction as the
/// generic loop below, which the compiler also fuses into FMAs — results
/// are identical.
template <int MR>
void MicroKernelRowsSimd(const float* a, int64_t a_rs, int64_t a_ks,
                         const float* bp, float* c, int64_t ldc, int64_t kc) {
  static_assert(kNr == 32 && MR >= 1 && MR <= kMr);
  __m512 acc[MR][2];
  for (int r = 0; r < MR; ++r) {
    acc[r][0] = _mm512_loadu_ps(c + r * ldc);
    acc[r][1] = _mm512_loadu_ps(c + r * ldc + 16);
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const __m512 b0 = _mm512_loadu_ps(bp + kk * kNr);
    const __m512 b1 = _mm512_loadu_ps(bp + kk * kNr + 16);
    for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * a_rs + kk * a_ks]);
      acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    _mm512_storeu_ps(c + r * ldc, acc[r][0]);
    _mm512_storeu_ps(c + r * ldc + 16, acc[r][1]);
  }
}

#elif defined(__AVX2__) && defined(__FMA__)

/// MR×16 tile (full strip width) with explicit 256-bit FMAs (see the
/// AVX-512 variant for the rationale).
template <int MR>
void MicroKernelRowsSimd(const float* a, int64_t a_rs, int64_t a_ks,
                         const float* bp, float* c, int64_t ldc, int64_t kc) {
  static_assert(kNr == 16 && MR >= 1 && MR <= kMr);
  __m256 acc[MR][2];
  for (int r = 0; r < MR; ++r) {
    acc[r][0] = _mm256_loadu_ps(c + r * ldc);
    acc[r][1] = _mm256_loadu_ps(c + r * ldc + 8);
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kNr);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kNr + 8);
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_set1_ps(a[r * a_rs + kk * a_ks]);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    _mm256_storeu_ps(c + r * ldc, acc[r][0]);
    _mm256_storeu_ps(c + r * ldc + 8, acc[r][1]);
  }
}

#endif

#if defined(__AVX512F__) || (defined(__AVX2__) && defined(__FMA__))
constexpr bool kHaveSimdKernel = true;

/// Dispatches the runtime row count to the fixed-MR SIMD kernels. Only valid
/// for full-width strips (nr == kNr).
void MicroKernelRows(const float* a, int64_t a_rs, int64_t a_ks,
                     const float* bp, float* c, int64_t ldc, int64_t mr,
                     int64_t kc) {
  switch (mr) {
    case 1: MicroKernelRowsSimd<1>(a, a_rs, a_ks, bp, c, ldc, kc); break;
    case 2: MicroKernelRowsSimd<2>(a, a_rs, a_ks, bp, c, ldc, kc); break;
    case 3: MicroKernelRowsSimd<3>(a, a_rs, a_ks, bp, c, ldc, kc); break;
    case 4: MicroKernelRowsSimd<4>(a, a_rs, a_ks, bp, c, ldc, kc); break;
#if defined(__AVX512F__)
    case 5: MicroKernelRowsSimd<5>(a, a_rs, a_ks, bp, c, ldc, kc); break;
    case 6: MicroKernelRowsSimd<6>(a, a_rs, a_ks, bp, c, ldc, kc); break;
    case 7: MicroKernelRowsSimd<7>(a, a_rs, a_ks, bp, c, ldc, kc); break;
    case 8: MicroKernelRowsSimd<8>(a, a_rs, a_ks, bp, c, ldc, kc); break;
#endif
    default: MUSE_CHECK(false) << "bad row count " << mr;
  }
}
#else
constexpr bool kHaveSimdKernel = false;
void MicroKernelRows(const float*, int64_t, int64_t, const float*, float*,
                     int64_t, int64_t, int64_t) {}
#endif

/// C-tile [mr≤kMr, nr≤kNr] += A-rows · packed-B-strip over one K-panel.
/// Accumulators live in registers; lanes past `nr` compute on the packed
/// zeros and are never stored.
void MicroKernel(const float* a, int64_t a_rs, int64_t a_ks, const float* bp,
                 float* c, int64_t ldc, int64_t mr, int64_t nr, int64_t kc) {
  if (kHaveSimdKernel && nr == kNr) {
    MicroKernelRows(a, a_rs, a_ks, bp, c, ldc, mr, kc);
    return;
  }
  if (mr == kMr && nr == kNr) {
    // Full tile: constant loop bounds so the compiler unrolls and keeps the
    // accumulators in vector registers.
    float acc[kMr][kNr];
    for (int64_t r = 0; r < kMr; ++r) {
      for (int64_t j = 0; j < kNr; ++j) acc[r][j] = c[r * ldc + j];
    }
    for (int64_t kk = 0; kk < kc; ++kk) {
      const float* b_row = bp + kk * kNr;
      for (int64_t r = 0; r < kMr; ++r) {
        const float av = a[r * a_rs + kk * a_ks];
        for (int64_t j = 0; j < kNr; ++j) acc[r][j] += av * b_row[j];
      }
    }
    for (int64_t r = 0; r < kMr; ++r) {
      for (int64_t j = 0; j < kNr; ++j) c[r * ldc + j] = acc[r][j];
    }
    return;
  }
  // Edge tile (bottom rows / right columns).
  float acc[kMr][kNr];
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < kNr; ++j) {
      acc[r][j] = j < nr ? c[r * ldc + j] : 0.0f;
    }
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* b_row = bp + kk * kNr;
    for (int64_t r = 0; r < mr; ++r) {
      const float av = a[r * a_rs + kk * a_ks];
      for (int64_t j = 0; j < kNr; ++j) acc[r][j] += av * b_row[j];
    }
  }
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < nr; ++j) c[r * ldc + j] = acc[r][j];
  }
}

void GemmDriver(int64_t m, int64_t n, int64_t k, const float* a, int64_t a_rs,
                int64_t a_ks, const float* b, int64_t b_ks, int64_t b_ns,
                float* c, int64_t ldc, float* pack_scratch) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  if (m * n * k <= kSmallProblem) {
    GemmSmall(m, n, k, a, a_rs, a_ks, b, b_ks, b_ns, c, ldc);
    return;
  }

  // Pack buffer. Preplanned callers (the inference engine) pass arena
  // scratch; everyone else borrows from the pool — at typical training
  // shapes this is a few hundred KB reacquired for every GEMM call, which a
  // fresh heap allocation turns into mmap + page-fault traffic. PackB
  // overwrites every element it reads, so the buffer is never zeroed.
  const int64_t packed_width = (n + kNr - 1) / kNr * kNr;
  StoragePool& pool = StoragePool::Instance();
  std::vector<float> packed;
  float* pack = pack_scratch;
  if (pack == nullptr) {
    packed = pool.Acquire(
        static_cast<size_t>(std::min(kKc, k) * packed_width), /*zero=*/false);
    pack = packed.data();
  }

  for (int64_t kp = 0; kp < k; kp += kKc) {
    const int64_t kc = std::min(kKc, k - kp);
    PackB(b + kp * b_ks, b_ks, b_ns, kc, n, pack);
    const float* bp = pack;
    util::ActivePool().ParallelFor(
        0, m, kRowChunk, [&](int64_t r0, int64_t r1) {
          for (int64_t i = r0; i < r1; i += kMr) {
            const int64_t mr = std::min(kMr, r1 - i);
            const float* a_panel = a + i * a_rs + kp * a_ks;
            for (int64_t js = 0; js < n; js += kNr) {
              const int64_t nr = std::min(kNr, n - js);
              MicroKernel(a_panel, a_rs, a_ks, bp + (js / kNr) * kc * kNr,
                          c + i * ldc + js, ldc, mr, nr, kc);
            }
          }
        });
  }
  if (pack_scratch == nullptr) pool.Release(std::move(packed));
}

}  // namespace

int64_t GemmPackScratchElems(int64_t m, int64_t n, int64_t k) {
  if (m <= 0 || n <= 0 || k <= 0) return 0;
  if (m * n * k <= kSmallProblem) return 0;
  return std::min(kKc, k) * ((n + kNr - 1) / kNr * kNr);
}

void GemmAccF32(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
                const float* b, int64_t ldb, float* c, int64_t ldc,
                float* pack_scratch) {
  GemmDriver(m, n, k, a, lda, 1, b, ldb, 1, c, ldc, pack_scratch);
}

void GemmAccF32TransB(int64_t m, int64_t n, int64_t k, const float* a,
                      int64_t lda, const float* bt, int64_t ldbt, float* c,
                      int64_t ldc, float* pack_scratch) {
  GemmDriver(m, n, k, a, lda, 1, bt, 1, ldbt, c, ldc, pack_scratch);
}

void GemmAccF32TransA(int64_t m, int64_t n, int64_t k, const float* at,
                      int64_t ldat, const float* b, int64_t ldb, float* c,
                      int64_t ldc, float* pack_scratch) {
  GemmDriver(m, n, k, at, 1, ldat, b, ldb, 1, c, ldc, pack_scratch);
}

static_assert(kKc == kGemmKc, "packed layouts assume the K-panel height");

GemmTile GemmTileShape() { return {kMr, kNr}; }

int64_t GemmPackedBElems(int64_t k, int64_t n) {
  return k * ((n + kNr - 1) / kNr * kNr);
}

void GemmPackBTiles(int64_t k, int64_t n, const float* b, int64_t ldb,
                    float* out) {
  const int64_t ceil_n = (n + kNr - 1) / kNr * kNr;
  for (int64_t kp = 0; kp < k; kp += kKc) {
    const int64_t kc = std::min(kKc, k - kp);
    // PackB's strip stride is kc·kNr, exactly the per-panel layout above.
    PackB(b + kp * ldb, ldb, 1, kc, n, out + kp * ceil_n);
  }
}

void GemmMicroKernelAcc(const float* a, int64_t a_rs, int64_t a_ks,
                        const float* bp, float* c, int64_t ldc, int64_t mr,
                        int64_t nr, int64_t kc) {
  MicroKernel(a, a_rs, a_ks, bp, c, ldc, mr, nr, kc);
}

}  // namespace musenet::tensor
