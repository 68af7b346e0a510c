#ifndef MUSENET_TENSOR_IM2COL_H_
#define MUSENET_TENSOR_IM2COL_H_

#include <cstdint>

namespace musenet::tensor {

// im2col/col2im lowering: a [Cin, H, W] image plane unrolled so that 2-D
// convolution becomes GEMM. The column matrix is row-major
// [Cin·kh·kw, oh·ow]; row r = (ci·kh + ky)·kw + kx matches the row-major
// flattening of a [Cout, Cin, kh, kw] weight tensor, so the forward pass is
// exactly `out = W_flat · col`. Out-of-image taps (zero padding) become
// literal zeros in the column matrix.

/// Unrolls `in` ([cin, h, w], row-major) into `col` ([cin·kh·kw, oh·ow]).
void Im2col(const float* in, int64_t cin, int64_t h, int64_t w, int64_t kh,
            int64_t kw, int64_t stride, int64_t pad, int64_t oh, int64_t ow,
            float* col);

/// Adjoint of Im2col: accumulates `col` back into `in` (+=), summing the
/// overlapping taps. `in` is not cleared — callers pass a zeroed plane.
void Col2imAdd(const float* col, int64_t cin, int64_t h, int64_t w, int64_t kh,
               int64_t kw, int64_t stride, int64_t pad, int64_t oh, int64_t ow,
               float* in);

}  // namespace musenet::tensor

#endif  // MUSENET_TENSOR_IM2COL_H_
