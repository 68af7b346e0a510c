#ifndef MUSENET_TENSOR_GEMM_H_
#define MUSENET_TENSOR_GEMM_H_

#include <cstdint>

namespace musenet::tensor {

// Cache-blocked, register-tiled single-precision GEMM — the compute core
// behind MatMul, MatMulBatched and the im2col convolution path.
//
// Determinism contract: for every output element C[i,j] the accumulation
// visits k in ascending order with a single running chain (the micro-kernel
// reloads C between K-panels), so the arithmetic sequence is identical to a
// naive i-k-j loop nest and identical at every thread count. Rows of C are
// partitioned across the thread pool in fixed-size chunks; no two threads
// write the same row.

/// Elements of packing scratch the entry points below need for an (m, n, k)
/// problem: one K-panel of B packed into kNr-wide strips, or 0 when the
/// problem is small enough that nothing is packed. Callers that preplan
/// memory (the graph-free inference engine) size an arena slot with this and
/// pass it as `pack_scratch`; passing nullptr keeps the pooled behaviour.
int64_t GemmPackScratchElems(int64_t m, int64_t n, int64_t k);

/// C[m,n] += A[m,k] · B[k,n], row-major with leading dimensions `lda`,
/// `ldb`, `ldc`. Callers that want plain assignment pass a zeroed C (Tensor
/// storage is zero-initialized, so fresh outputs qualify). `pack_scratch`
/// (optional, ≥ GemmPackScratchElems(m, n, k) floats, fully overwritten)
/// replaces the pooled pack buffer for allocation-free steady state.
void GemmAccF32(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
                const float* b, int64_t ldb, float* c, int64_t ldc,
                float* pack_scratch = nullptr);

// Transposed-operand variants. The transposed operand is read through
// strides during packing / broadcast instead of being materialized, which
// removes a full write+read pass over it; values, accumulation order and
// results are bit-identical to transposing first and calling GemmAccF32.
// Backward passes (grad = g·Bᵀ, grad = Aᵀ·g, im2col weight gradients) are
// the intended callers.

/// C[m,n] += A[m,k] · Bᵀ where B is stored transposed: bt[n,k] row-major
/// with leading dimension `ldbt` (B[kk][j] = bt[j·ldbt + kk]).
void GemmAccF32TransB(int64_t m, int64_t n, int64_t k, const float* a,
                      int64_t lda, const float* bt, int64_t ldbt, float* c,
                      int64_t ldc, float* pack_scratch = nullptr);

/// C[m,n] += Aᵀ · B[k,n] where A is stored transposed: at[k,m] row-major
/// with leading dimension `ldat` (A[i][kk] = at[kk·ldat + i]).
void GemmAccF32TransA(int64_t m, int64_t n, int64_t k, const float* at,
                      int64_t ldat, const float* b, int64_t ldb, float* c,
                      int64_t ldc, float* pack_scratch = nullptr);

// --- Tile-layout exports for plan-time weight specialization ---------------
//
// The graph-free inference engine repacks weights into the micro-kernel's
// native tile layout once at plan build, then replays with GemmMicroKernelAcc
// directly — skipping the per-call PackB pass. The helpers below expose the
// micro-kernel's tiling so the packed layout can be produced (and consumed)
// outside this translation unit without duplicating the constants.
//
// Accumulation order through GemmMicroKernelAcc is the micro-kernel's own —
// ascending k within a K-panel, panels in ascending order when the caller
// loops them that way — i.e. identical to GemmAccF32's, so replaying packed
// weights is numerically indistinguishable from the unpacked path.

/// K-panel height shared by every packed layout (kKc in gemm.cc).
inline constexpr int64_t kGemmKc = 256;

/// The micro-kernel tile selected for this build's ISA.
struct GemmTile {
  int64_t mr = 0;  ///< Rows of C per micro-kernel call.
  int64_t nr = 0;  ///< Columns of C per call (one packed strip width).
};
GemmTile GemmTileShape();

/// Elements of a fully packed B operand: every K-panel stores
/// ceil(n / nr)·nr columns (last strip zero-padded), so the total is
/// k · ceil(n / nr) · nr.
int64_t GemmPackedBElems(int64_t k, int64_t n);

/// Packs all of B[k,n] (row-major, leading dimension ldb) into the tiled
/// layout: K-panel kp (kc_p = min(kGemmKc, k − kp) rows) starts at element
/// kp · ceil_n; within a panel, strip s = j/nr is kc_p·nr floats, k-major
/// (element (kk, j) of the panel at s·kc_p·nr + kk·nr + j%nr), right-padded
/// with zeros to full strip width.
void GemmPackBTiles(int64_t k, int64_t n, const float* b, int64_t ldb,
                    float* out);

/// One micro-kernel call: C-tile [mr ≤ tile.mr, nr ≤ tile.nr] += A-rows ×
/// one packed B strip over a K-panel of kc rows. `a` is addressed as
/// A[r][kk] = a[r·a_rs + kk·a_ks]; `bp` is one strip of the packed layout
/// above (row stride = full tile.nr, zero-padded). Lanes past `nr` compute
/// on the packed zeros and are never stored. No allocation.
void GemmMicroKernelAcc(const float* a, int64_t a_rs, int64_t a_ks,
                        const float* bp, float* c, int64_t ldc, int64_t mr,
                        int64_t nr, int64_t kc);

}  // namespace musenet::tensor

#endif  // MUSENET_TENSOR_GEMM_H_
