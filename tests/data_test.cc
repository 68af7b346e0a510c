#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "data/dataset.h"
#include "data/interception.h"
#include "data/scaler.h"
#include "tensor/tensor_ops.h"
#include "sim/flow_series.h"

namespace musenet::data {
namespace {

/// A series where every element equals its interval index — interception
/// indices become directly observable in the sample values.
sim::FlowSeries IndexedSeries(int64_t h, int64_t w, int f, int64_t intervals) {
  sim::FlowSeries flows(sim::GridSpec{h, w}, f, /*start_weekday=*/0,
                        intervals);
  for (int64_t t = 0; t < intervals; ++t) {
    for (int flow = 0; flow < 2; ++flow) {
      for (int64_t y = 0; y < h; ++y) {
        for (int64_t x = 0; x < w; ++x) {
          flows.at(t, flow, y, x) = static_cast<float>(t);
        }
      }
    }
  }
  return flows;
}

// --- PeriodicitySpec ----------------------------------------------------------------

TEST(PeriodicitySpecTest, MinValidIndexDominatedByTrend) {
  PeriodicitySpec spec;  // (3, 4, 4).
  // L_t·f·7 = 4·48·7 = 1344 dominates.
  EXPECT_EQ(spec.MinValidIndex(48), 1344);
  PeriodicitySpec short_trend{.len_closeness = 10, .len_period = 1,
                              .len_trend = 0};
  // With no trend: max(10, 48) = 48.
  EXPECT_EQ(short_trend.MinValidIndex(48), 48);
}

TEST(PeriodicitySpecTest, ChannelCounts) {
  PeriodicitySpec spec;
  EXPECT_EQ(spec.ClosenessChannels(), 6);
  EXPECT_EQ(spec.PeriodChannels(), 8);
  EXPECT_EQ(spec.TrendChannels(), 8);
}

// --- Interception (Definition 3) ----------------------------------------------------------------

TEST(InterceptionTest, IndicesMatchEquations3To5) {
  const int f = 24;
  PeriodicitySpec spec{.len_closeness = 3, .len_period = 2, .len_trend = 1};
  sim::FlowSeries flows = IndexedSeries(2, 2, f, f * 7 + 50);
  const int64_t i = f * 7 + 10;  // ≥ min valid (f·7 = 168).
  Sample s = InterceptSample(flows, spec, i);

  // Eq. (3): closeness frames i−3, i−2, i−1 (oldest first).
  EXPECT_EQ(s.closeness.shape(), tensor::Shape({6, 2, 2}));
  EXPECT_FLOAT_EQ(s.closeness.at({0, 0, 0}), static_cast<float>(i - 3));
  EXPECT_FLOAT_EQ(s.closeness.at({2, 0, 0}), static_cast<float>(i - 2));
  EXPECT_FLOAT_EQ(s.closeness.at({4, 0, 0}), static_cast<float>(i - 1));

  // Eq. (4): period frames i−2f, i−f.
  EXPECT_EQ(s.period.shape(), tensor::Shape({4, 2, 2}));
  EXPECT_FLOAT_EQ(s.period.at({0, 0, 0}), static_cast<float>(i - 2 * f));
  EXPECT_FLOAT_EQ(s.period.at({2, 0, 0}), static_cast<float>(i - f));

  // Eq. (5): trend frame i−7f.
  EXPECT_EQ(s.trend.shape(), tensor::Shape({2, 2, 2}));
  EXPECT_FLOAT_EQ(s.trend.at({0, 0, 0}), static_cast<float>(i - 7 * f));

  // Target is frame i.
  EXPECT_EQ(s.target.shape(), tensor::Shape({2, 2, 2}));
  EXPECT_FLOAT_EQ(s.target.at({0, 0, 0}), static_cast<float>(i));
  EXPECT_EQ(s.target_index, i);
}

TEST(InterceptionTest, HorizonOffsetShiftsTargetOnly) {
  const int f = 24;
  PeriodicitySpec spec{.len_closeness = 2, .len_period = 1, .len_trend = 1};
  sim::FlowSeries flows = IndexedSeries(1, 1, f, f * 7 + 20);
  const int64_t i = f * 7 + 2;
  Sample h0 = InterceptSample(flows, spec, i, 0);
  Sample h2 = InterceptSample(flows, spec, i, 2);
  // Same inputs...
  EXPECT_TRUE(h0.closeness.AllClose(h2.closeness));
  EXPECT_TRUE(h0.period.AllClose(h2.period));
  // ...different target.
  EXPECT_FLOAT_EQ(h2.target.flat(0), static_cast<float>(i + 2));
  EXPECT_EQ(h2.target_index, i + 2);
}

TEST(InterceptionTest, FlowChannelInterleavingIsFrameMajor) {
  const int f = 24;
  PeriodicitySpec spec{.len_closeness = 2, .len_period = 1, .len_trend = 1};
  sim::FlowSeries flows(sim::GridSpec{1, 1}, f, 0, f * 7 + 20);
  const int64_t i = f * 7 + 3;
  flows.at(i - 2, sim::kOutflow, 0, 0) = 100.0f;
  flows.at(i - 2, sim::kInflow, 0, 0) = 200.0f;
  flows.at(i - 1, sim::kOutflow, 0, 0) = 300.0f;
  flows.at(i - 1, sim::kInflow, 0, 0) = 400.0f;
  Sample s = InterceptSample(flows, spec, i);
  // Channel 2s+q = frame s (oldest first), flow q.
  EXPECT_FLOAT_EQ(s.closeness.at({0, 0, 0}), 100.0f);
  EXPECT_FLOAT_EQ(s.closeness.at({1, 0, 0}), 200.0f);
  EXPECT_FLOAT_EQ(s.closeness.at({2, 0, 0}), 300.0f);
  EXPECT_FLOAT_EQ(s.closeness.at({3, 0, 0}), 400.0f);
}

// --- Scaler ----------------------------------------------------------------

TEST(ScalerTest, MapsFitRangeToMinusOneOne) {
  sim::FlowSeries flows(sim::GridSpec{1, 1}, 24, 0, 4);
  flows.at(0, 0, 0, 0) = 2.0f;
  flows.at(1, 0, 0, 0) = 10.0f;
  MinMaxScaler scaler;
  scaler.Fit(flows, 4);
  EXPECT_FLOAT_EQ(scaler.min_value(), 0.0f);  // Untouched cells are 0.
  EXPECT_FLOAT_EQ(scaler.max_value(), 10.0f);
  EXPECT_FLOAT_EQ(scaler.Transform(0.0f), -1.0f);
  EXPECT_FLOAT_EQ(scaler.Transform(10.0f), 1.0f);
  EXPECT_FLOAT_EQ(scaler.Transform(5.0f), 0.0f);
}

TEST(ScalerTest, InverseRoundTrips) {
  sim::FlowSeries flows(sim::GridSpec{1, 1}, 24, 0, 2);
  flows.at(0, 0, 0, 0) = 3.0f;
  flows.at(1, 1, 0, 0) = 17.0f;
  MinMaxScaler scaler;
  scaler.Fit(flows, 2);
  for (float v : {0.0f, 3.0f, 8.5f, 17.0f, 20.0f}) {
    EXPECT_NEAR(scaler.Inverse(scaler.Transform(v)), v, 1e-4f);
  }
}

TEST(ScalerTest, FitWindowExcludesLaterFrames) {
  sim::FlowSeries flows(sim::GridSpec{1, 1}, 24, 0, 3);
  flows.at(0, 0, 0, 0) = 5.0f;
  flows.at(2, 0, 0, 0) = 100.0f;  // After the fit window.
  MinMaxScaler scaler;
  scaler.Fit(flows, 2);
  EXPECT_FLOAT_EQ(scaler.max_value(), 5.0f);
}

TEST(ScalerTest, DegenerateConstantSeries) {
  sim::FlowSeries flows(sim::GridSpec{1, 1}, 24, 0, 2);
  MinMaxScaler scaler;
  scaler.Fit(flows, 2);  // All zero — must not divide by zero.
  EXPECT_FLOAT_EQ(scaler.Transform(0.0f), -1.0f);
}

TEST(ScalerTest, TensorTransform) {
  sim::FlowSeries flows(sim::GridSpec{1, 1}, 24, 0, 2);
  flows.at(0, 0, 0, 0) = 4.0f;
  MinMaxScaler scaler;
  scaler.Fit(flows, 2);
  tensor::Tensor t = tensor::Tensor::FromVector({0.0f, 2.0f, 4.0f});
  tensor::Tensor scaled = scaler.Transform(t);
  EXPECT_TRUE(scaled.AllClose(tensor::Tensor::FromVector({-1.0f, 0.0f, 1.0f})));
  EXPECT_TRUE(scaler.Inverse(scaled).AllClose(t, 1e-4f, 1e-4f));
}

// --- TrafficDataset ----------------------------------------------------------------

TrafficDataset SmallDataset(int64_t horizon_offset = 0) {
  const int f = 24;
  PeriodicitySpec spec{.len_closeness = 3, .len_period = 2, .len_trend = 1};
  DatasetOptions options;
  options.spec = spec;
  options.horizon_offset = horizon_offset;
  options.test_days = 4;
  // 16 days at f = 24.
  return TrafficDataset(IndexedSeries(2, 2, f, 16 * f), options);
}

TEST(DatasetTest, SplitsAreChronologicalAndDisjoint) {
  TrafficDataset ds = SmallDataset();
  ASSERT_FALSE(ds.train_indices().empty());
  ASSERT_FALSE(ds.val_indices().empty());
  ASSERT_FALSE(ds.test_indices().empty());
  // Ordered: max(train) < min(val) < min(test).
  EXPECT_LT(ds.train_indices().back(), ds.val_indices().front());
  EXPECT_LT(ds.val_indices().back(), ds.test_indices().front());
  // Disjoint as sets.
  std::set<int64_t> all;
  for (auto& pool :
       {ds.train_indices(), ds.val_indices(), ds.test_indices()}) {
    for (int64_t i : pool) EXPECT_TRUE(all.insert(i).second);
  }
  // All indices valid for interception.
  const int64_t min_valid = ds.options().spec.MinValidIndex(24);
  for (int64_t i : ds.train_indices()) EXPECT_GE(i, min_valid);
}

TEST(DatasetTest, TestSpanHasRequestedDays) {
  TrafficDataset ds = SmallDataset();
  EXPECT_EQ(static_cast<int64_t>(ds.test_indices().size()), 4 * 24);
}

TEST(DatasetTest, ValidationFractionRespected) {
  TrafficDataset ds = SmallDataset();
  const double frac =
      static_cast<double>(ds.val_indices().size()) /
      static_cast<double>(ds.val_indices().size() + ds.train_indices().size());
  EXPECT_NEAR(frac, 0.1, 0.02);
}

TEST(DatasetTest, MaxTrainSamplesCapsViaStride) {
  const int f = 24;
  DatasetOptions options;
  options.spec = PeriodicitySpec{.len_closeness = 3, .len_period = 2,
                                 .len_trend = 1};
  options.test_days = 4;
  options.max_train_samples = 20;
  TrafficDataset ds(IndexedSeries(2, 2, f, 16 * f), options);
  EXPECT_EQ(ds.train_indices().size(), 20u);
  // Still chronological and covering the span (stride subsampling).
  EXPECT_TRUE(std::is_sorted(ds.train_indices().begin(),
                             ds.train_indices().end()));
}

TEST(DatasetTest, BatchShapesAndScaling) {
  TrafficDataset ds = SmallDataset();
  const std::vector<int64_t> indices(ds.train_indices().begin(),
                                     ds.train_indices().begin() + 3);
  Batch batch = ds.MakeBatch(indices);
  EXPECT_EQ(batch.batch_size(), 3);
  EXPECT_EQ(batch.closeness.shape(), tensor::Shape({3, 6, 2, 2}));
  EXPECT_EQ(batch.period.shape(), tensor::Shape({3, 4, 2, 2}));
  EXPECT_EQ(batch.trend.shape(), tensor::Shape({3, 2, 2, 2}));
  EXPECT_EQ(batch.target.shape(), tensor::Shape({3, 2, 2, 2}));
  EXPECT_EQ(batch.target_indices.size(), 3u);
  // All values within the scaled range.
  EXPECT_LE(tensor::MaxValue(batch.closeness), 1.0f);
  EXPECT_GE(tensor::MinValue(batch.closeness), -1.0f);
  // Scaled target decodes back to the raw index value.
  EXPECT_NEAR(ds.scaler().Inverse(batch.target.flat(0)),
              static_cast<float>(batch.target_indices[0]), 0.5f);
}

TEST(DatasetTest, MakeBatchFromPoolClampsTail) {
  TrafficDataset ds = SmallDataset();
  const auto& pool = ds.test_indices();
  Batch batch = ds.MakeBatchFromPool(pool, pool.size() - 2, 10);
  EXPECT_EQ(batch.batch_size(), 2);
}

TEST(DatasetTest, HorizonOffsetShrinksUsableRangeAndShiftsTargets) {
  TrafficDataset h0 = SmallDataset(0);
  TrafficDataset h2 = SmallDataset(2);
  Batch b = h2.MakeBatch({h2.test_indices().front()});
  EXPECT_EQ(b.target_indices[0], h2.test_indices().front() + 2);
  // Last usable base index is smaller when the target is further out.
  EXPECT_LT(h2.test_indices().back(), h0.test_indices().back());
}

TEST(DatasetTest, ScalerFitOnPreTestSpanOnly) {
  const int f = 24;
  sim::FlowSeries flows = IndexedSeries(1, 1, f, 16 * f);
  // Spike inside the test span must not affect the scaler.
  flows.at(16 * f - 1, 0, 0, 0) = 9999.0f;
  DatasetOptions options;
  options.spec = PeriodicitySpec{.len_closeness = 3, .len_period = 2,
                                 .len_trend = 1};
  options.test_days = 4;
  TrafficDataset ds(std::move(flows), options);
  EXPECT_LT(ds.scaler().max_value(), 9999.0f);
}

TEST(DatasetTest, ShortSeriesIsAnErrorNamingTheShortfall) {
  // The default spec needs 28 days (1344 intervals at f = 48) of history,
  // and the automatic test span takes at least one day more.
  const int f = 48;
  DatasetOptions options;
  const Status no_history =
      ValidateSeriesLength(IndexedSeries(1, 1, f, 20 * f), options);
  EXPECT_EQ(no_history.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_history.message().find("periodicity spec"), std::string::npos)
      << no_history.message();

  const Status no_train =
      ValidateSeriesLength(IndexedSeries(1, 1, f, 29 * f), options);
  EXPECT_EQ(no_train.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_train.message().find("no training samples"), std::string::npos)
      << no_train.message();

  EXPECT_TRUE(ValidateSeriesLength(IndexedSeries(1, 1, f, 30 * f), options)
                  .ok());
  EXPECT_DEATH(TrafficDataset(IndexedSeries(1, 1, f, 29 * f), options),
               "no training samples");
}

}  // namespace
}  // namespace musenet::data
