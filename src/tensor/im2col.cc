#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>

namespace musenet::tensor {

void Im2col(const float* in, int64_t cin, int64_t h, int64_t w, int64_t kh,
            int64_t kw, int64_t stride, int64_t pad, int64_t oh, int64_t ow,
            float* col) {
  const int64_t osp = oh * ow;
  for (int64_t ci = 0; ci < cin; ++ci) {
    const float* plane = in + ci * h * w;
    for (int64_t ky = 0; ky < kh; ++ky) {
      for (int64_t kx = 0; kx < kw; ++kx) {
        float* dst = col + ((ci * kh + ky) * kw + kx) * osp;
        for (int64_t oy = 0; oy < oh; ++oy) {
          const int64_t iy = oy * stride + ky - pad;
          float* dst_row = dst + oy * ow;
          if (iy < 0 || iy >= h) {
            std::memset(dst_row, 0, static_cast<size_t>(ow) * sizeof(float));
            continue;
          }
          const float* in_row = plane + iy * w;
          if (stride == 1) {
            // Valid ox range: 0 <= ox + kx - pad < w.
            const int64_t lo = std::max<int64_t>(0, pad - kx);
            const int64_t hi = std::min(ow, w + pad - kx);
            for (int64_t ox = 0; ox < lo; ++ox) dst_row[ox] = 0.0f;
            if (hi > lo) {
              std::memcpy(dst_row + lo, in_row + lo + kx - pad,
                          static_cast<size_t>(hi - lo) * sizeof(float));
            }
            for (int64_t ox = std::max(lo, hi); ox < ow; ++ox) {
              dst_row[ox] = 0.0f;
            }
          } else {
            for (int64_t ox = 0; ox < ow; ++ox) {
              const int64_t ix = ox * stride + kx - pad;
              dst_row[ox] = (ix >= 0 && ix < w) ? in_row[ix] : 0.0f;
            }
          }
        }
      }
    }
  }
}

void Col2imAdd(const float* col, int64_t cin, int64_t h, int64_t w, int64_t kh,
               int64_t kw, int64_t stride, int64_t pad, int64_t oh, int64_t ow,
               float* in) {
  const int64_t osp = oh * ow;
  for (int64_t ci = 0; ci < cin; ++ci) {
    float* plane = in + ci * h * w;
    for (int64_t ky = 0; ky < kh; ++ky) {
      for (int64_t kx = 0; kx < kw; ++kx) {
        const float* src = col + ((ci * kh + ky) * kw + kx) * osp;
        for (int64_t oy = 0; oy < oh; ++oy) {
          const int64_t iy = oy * stride + ky - pad;
          if (iy < 0 || iy >= h) continue;
          const float* src_row = src + oy * ow;
          float* in_row = plane + iy * w;
          for (int64_t ox = 0; ox < ow; ++ox) {
            const int64_t ix = ox * stride + kx - pad;
            if (ix >= 0 && ix < w) in_row[ix] += src_row[ox];
          }
        }
      }
    }
  }
}

}  // namespace musenet::tensor
