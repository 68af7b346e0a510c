#include "data/dataset.h"

#include <algorithm>
#include <string>

#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace musenet::data {

namespace {

/// Base-index bounds of the chronological split: samples in
/// [min_valid, test_start) train and validate, [test_start, max_valid] test.
struct SplitBounds {
  int64_t min_valid = 0;
  int64_t max_valid = 0;
  int64_t test_start = 0;
};

SplitBounds ComputeSplit(const sim::FlowSeries& flows,
                         const DatasetOptions& options) {
  const int f = flows.intervals_per_day();
  SplitBounds split;
  split.min_valid = options.spec.MinValidIndex(f);
  split.max_valid = flows.num_intervals() - 1 - options.horizon_offset;
  int test_days = options.test_days;
  if (test_days <= 0) {
    const int64_t usable_days = (split.max_valid - split.min_valid + 1) / f;
    test_days = static_cast<int>(std::max<int64_t>(1, usable_days / 3));
  }
  split.test_start =
      std::max(split.min_valid,
               split.max_valid + 1 - static_cast<int64_t>(test_days) * f);
  return split;
}

}  // namespace

Status ValidateSeriesLength(const sim::FlowSeries& flows,
                            const DatasetOptions& options) {
  const SplitBounds split = ComputeSplit(flows, options);
  const std::string has =
      ", has " + std::to_string(flows.num_intervals()) + " intervals";
  if (split.min_valid >= split.max_valid) {
    return Status::InvalidArgument(
        "series too short for the periodicity spec: needs more than " +
        std::to_string(split.min_valid + 1 + options.horizon_offset) +
        " intervals" + has);
  }
  if (split.test_start <= split.min_valid) {
    return Status::InvalidArgument(
        "no training samples before test span: the periodicity spec needs " +
        std::to_string(split.min_valid) +
        " intervals of history and the test span takes the last " +
        std::to_string(split.max_valid + 1 - split.test_start) + has);
  }
  return Status::OK();
}

TrafficDataset::TrafficDataset(sim::FlowSeries flows, DatasetOptions options)
    : flows_(std::move(flows)), options_(options) {
  const Status valid = ValidateSeriesLength(flows_, options_);
  MUSE_CHECK(valid.ok()) << valid.message();
  const auto [min_valid, max_valid, test_start] =
      ComputeSplit(flows_, options_);

  for (int64_t i = test_start; i <= max_valid; ++i) test_.push_back(i);

  std::vector<int64_t> fit_pool;
  for (int64_t i = min_valid; i < test_start; ++i) fit_pool.push_back(i);

  // Validation = chronological tail of the pre-test span.
  const size_t val_count = static_cast<size_t>(
      options_.validation_fraction * static_cast<double>(fit_pool.size()));
  const size_t train_count = fit_pool.size() - val_count;
  train_.assign(fit_pool.begin(),
                fit_pool.begin() + static_cast<int64_t>(train_count));
  val_.assign(fit_pool.begin() + static_cast<int64_t>(train_count),
              fit_pool.end());

  // Optional stride subsampling to cap training cost (keeps chronological
  // coverage of the whole span).
  if (options_.max_train_samples > 0 &&
      static_cast<int64_t>(train_.size()) > options_.max_train_samples) {
    std::vector<int64_t> reduced;
    reduced.reserve(static_cast<size_t>(options_.max_train_samples));
    const double stride = static_cast<double>(train_.size()) /
                          static_cast<double>(options_.max_train_samples);
    for (int64_t k = 0; k < options_.max_train_samples; ++k) {
      reduced.push_back(train_[static_cast<size_t>(k * stride)]);
    }
    train_ = std::move(reduced);
  }

  // Scaler sees only pre-test frames (everything the model may train on).
  scaler_.Fit(flows_, test_start);
}

Batch TrafficDataset::MakeBatch(std::span<const int64_t> base_indices) const {
  MUSE_CHECK(!base_indices.empty());
  std::vector<tensor::Tensor> closeness;
  std::vector<tensor::Tensor> period;
  std::vector<tensor::Tensor> trend;
  std::vector<tensor::Tensor> target;
  Batch batch;
  for (int64_t i : base_indices) {
    Sample s =
        InterceptSample(flows_, options_.spec, i, options_.horizon_offset);
    const auto& cs = s.closeness.shape();
    closeness.push_back(scaler_.Transform(s.closeness)
                            .Reshape(tensor::Shape(
                                {1, cs.dim(0), cs.dim(1), cs.dim(2)})));
    const auto& ps = s.period.shape();
    period.push_back(scaler_.Transform(s.period).Reshape(
        tensor::Shape({1, ps.dim(0), ps.dim(1), ps.dim(2)})));
    const auto& tshape = s.trend.shape();
    trend.push_back(scaler_.Transform(s.trend).Reshape(tensor::Shape(
        {1, tshape.dim(0), tshape.dim(1), tshape.dim(2)})));
    const auto& ys = s.target.shape();
    target.push_back(scaler_.Transform(s.target).Reshape(
        tensor::Shape({1, ys.dim(0), ys.dim(1), ys.dim(2)})));
    batch.target_indices.push_back(s.target_index);
  }
  batch.closeness = tensor::Concat(closeness, 0);
  batch.period = tensor::Concat(period, 0);
  batch.trend = tensor::Concat(trend, 0);
  batch.target = tensor::Concat(target, 0);
  return batch;
}

Batch TrafficDataset::MakeBatchFromPool(std::span<const int64_t> pool,
                                        size_t begin, size_t count) const {
  MUSE_CHECK_LT(begin, pool.size());
  return MakeBatch(pool.subspan(begin, std::min(count, pool.size() - begin)));
}

}  // namespace musenet::data
