#include "eval/training.h"

#include <algorithm>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

namespace musenet::eval {

// Threading model for training/evaluation. Per-sample forward/backward
// within a batch fans out inside the kernels: conv2d and batched matmul
// partition the batch dimension across the pool, and the GEMM row-partitions
// each sample's work (see DESIGN.md "Performance substrate"). The epoch loop
// itself stays sequential — gradient accumulation into shared parameter
// nodes and the per-model RNG streams are ordered state — so this
// file parallelizes only the order-free dense reductions below.

std::vector<int64_t> ShuffleEpochPool(const std::vector<int64_t>& pool,
                                      Rng& rng) {
  std::vector<int64_t> shuffled = pool;
  // Fisher–Yates with the library Rng for cross-platform determinism.
  for (size_t i = shuffled.size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.UniformInt(i));
    std::swap(shuffled[i - 1], shuffled[j]);
  }
  return shuffled;
}

std::vector<std::vector<int64_t>> MakeEpochBatches(
    const std::vector<int64_t>& pool, int batch_size, Rng& rng) {
  MUSE_CHECK_GT(batch_size, 0);
  std::vector<int64_t> shuffled = ShuffleEpochPool(pool, rng);
  std::vector<std::vector<int64_t>> batches;
  for (size_t begin = 0; begin < shuffled.size();
       begin += static_cast<size_t>(batch_size)) {
    const size_t end =
        std::min(shuffled.size(), begin + static_cast<size_t>(batch_size));
    batches.emplace_back(shuffled.begin() + begin, shuffled.begin() + end);
  }
  return batches;
}

double MseOf(const tensor::Tensor& prediction, const tensor::Tensor& truth) {
  MUSE_CHECK(prediction.shape() == truth.shape());
  const float* pp = prediction.data();
  const float* pt = truth.data();
  const int64_t n = prediction.num_elements();
  // Fixed-size chunks with per-chunk partials combined in chunk order: the
  // reduction tree depends only on n, so the value is identical at every
  // MUSENET_NUM_THREADS.
  constexpr int64_t kGrain = 1 << 14;
  const int64_t num_chunks = (n + kGrain - 1) / kGrain;
  std::vector<double> partial(static_cast<size_t>(num_chunks), 0.0);
  util::ActivePool().ParallelFor(0, n, kGrain, [&](int64_t lo, int64_t hi) {
    double acc = 0.0;
    for (int64_t i = lo; i < hi; ++i) {
      const double err = static_cast<double>(pp[i]) - pt[i];
      acc += err * err;
    }
    partial[static_cast<size_t>(lo / kGrain)] = acc;
  });
  double total = 0.0;
  for (const double p : partial) total += p;
  return total / static_cast<double>(n);
}

double ValidationMse(Forecaster& model, const data::TrafficDataset& dataset,
                     int batch_size) {
  const std::vector<int64_t>& val = dataset.val_indices();
  if (val.empty()) return 0.0;
  double total = 0.0;
  int64_t count = 0;
  for (size_t begin = 0; begin < val.size();
       begin += static_cast<size_t>(batch_size)) {
    // Span window into the validation pool — no per-batch index copy.
    data::Batch batch = dataset.MakeBatchFromPool(
        val, begin, static_cast<size_t>(batch_size));
    tensor::Tensor pred = model.Predict(batch);
    const int64_t n = pred.num_elements();
    total += MseOf(pred, batch.target) * static_cast<double>(n);
    count += n;
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

}  // namespace musenet::eval
