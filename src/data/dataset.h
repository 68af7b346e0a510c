#ifndef MUSENET_DATA_DATASET_H_
#define MUSENET_DATA_DATASET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/interception.h"
#include "data/scaler.h"
#include "sim/flow_series.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace musenet::data {

/// Dataset construction options.
struct DatasetOptions {
  PeriodicitySpec spec;
  /// Horizon offset of the target: 0 = one-step (predict frame i), h−1 for
  /// direct multi-step horizon h (Table III).
  int64_t horizon_offset = 0;
  /// Days held out at the end for testing. 0 picks a third of the span,
  /// matching the paper's 40/20-day NYC split proportions.
  int test_days = 0;
  /// Fraction of the remaining (training) samples reserved for validation,
  /// taken from the chronological tail of the training span (paper: 10%).
  double validation_fraction = 0.1;
  /// Caps the training set by stride subsampling (0 = no cap). Used by the
  /// bench scale to bound single-core training time.
  int64_t max_train_samples = 0;
};

/// Checks that `flows` is long enough to split under `options`: the
/// periodicity spec's history window must fit, and at least one sample must
/// precede the test span. InvalidArgument names the shortfall otherwise.
/// TrafficDataset's constructor aborts on the same check, so code that
/// loads a flows file from outside the program calls this first.
Status ValidateSeriesLength(const sim::FlowSeries& flows,
                            const DatasetOptions& options);

/// A mini-batch of scaled model inputs.
struct Batch {
  tensor::Tensor closeness;  ///< [B, 2·L_c, H, W], scaled to [-1, 1].
  tensor::Tensor period;     ///< [B, 2·L_p, H, W].
  tensor::Tensor trend;      ///< [B, 2·L_t, H, W].
  tensor::Tensor target;     ///< [B, 2, H, W], scaled.
  std::vector<int64_t> target_indices;  ///< Absolute target intervals.

  int64_t batch_size() const { return closeness.dim(0); }
};

/// Chronologically split, Min-Max scaled view over a FlowSeries that
/// materializes (C, P, T, target) batches on demand.
///
/// The scaler is fit on the training span only. Sample indices refer to the
/// *base* index i of Definition 3 (the target is frame i + horizon_offset).
class TrafficDataset {
 public:
  TrafficDataset(sim::FlowSeries flows, DatasetOptions options);

  const std::vector<int64_t>& train_indices() const { return train_; }
  const std::vector<int64_t>& val_indices() const { return val_; }
  const std::vector<int64_t>& test_indices() const { return test_; }

  /// Materializes a scaled batch for the given base indices. The span
  /// overload lets callers batch a window of an existing index pool without
  /// copying indices into a fresh vector.
  Batch MakeBatch(std::span<const int64_t> base_indices) const;
  Batch MakeBatch(const std::vector<int64_t>& base_indices) const {
    return MakeBatch(std::span<const int64_t>(base_indices));
  }

  /// Convenience: batch `count` indices of `pool` starting at `begin`
  /// (clamped to the pool size).
  Batch MakeBatchFromPool(std::span<const int64_t> pool, size_t begin,
                          size_t count) const;

  const MinMaxScaler& scaler() const { return scaler_; }
  const sim::FlowSeries& flows() const { return flows_; }
  const DatasetOptions& options() const { return options_; }

  int64_t closeness_channels() const {
    return options_.spec.ClosenessChannels();
  }
  int64_t period_channels() const { return options_.spec.PeriodChannels(); }
  int64_t trend_channels() const { return options_.spec.TrendChannels(); }
  int64_t grid_height() const { return flows_.grid().height; }
  int64_t grid_width() const { return flows_.grid().width; }

 private:
  sim::FlowSeries flows_;
  DatasetOptions options_;
  MinMaxScaler scaler_;
  std::vector<int64_t> train_;
  std::vector<int64_t> val_;
  std::vector<int64_t> test_;
};

}  // namespace musenet::data

#endif  // MUSENET_DATA_DATASET_H_
