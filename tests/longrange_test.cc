// Tests for the long-range spatial mechanisms: the ResPlus "plus" branch
// (DeepSTN+'s full-grid dense path), GMAN's region attention, and the
// ST-SSL auxiliary objective — each verified by a behavioural property
// rather than by shapes alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "autograd/ops.h"
#include "baselines/gman.h"
#include "baselines/stssl.h"
#include "muse/resplus.h"
#include "tensor/tensor_ops.h"

namespace musenet {
namespace {

namespace ts = musenet::tensor;
namespace ag = musenet::autograd;

/// Max |a−b| over all elements.
float MaxAbsDiff(const ts::Tensor& a, const ts::Tensor& b) {
  float max_diff = 0.0f;
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a.flat(i) - b.flat(i)));
  }
  return max_diff;
}

TEST(ResPlusLongRangeTest, PlusBranchPropagatesAcrossTheGrid) {
  // One ResPlus block on an 8×8 grid: the conv path alone has a 5×5
  // receptive field, so a corner perturbation cannot reach the opposite
  // corner — unless the full-grid dense "plus" branch carries it.
  Rng rng_with(1);
  muse::ResPlusBlock with_plus(4, /*plus_channels=*/2, 8, 8, rng_with);
  Rng rng_without(1);
  muse::ResPlusBlock without_plus(4, /*plus_channels=*/0, 8, 8, rng_without);
  with_plus.SetTraining(false);
  without_plus.SetTraining(false);

  Rng data_rng(2);
  ts::Tensor base = ts::Tensor::RandomNormal(ts::Shape({1, 4, 8, 8}),
                                             data_rng);
  ts::Tensor poked = base;
  poked.at({0, 0, 0, 0}) += 3.0f;  // Perturb the top-left corner.

  auto far_corner_diff = [](muse::ResPlusBlock& block, const ts::Tensor& a,
                            const ts::Tensor& b) {
    ts::Tensor ya = block.Forward(ag::Constant(a)).value();
    ts::Tensor yb = block.Forward(ag::Constant(b)).value();
    float worst = 0.0f;
    for (int64_t c = 0; c < 4; ++c) {
      worst = std::max(worst, std::fabs(ya.at({0, c, 7, 7}) -
                                        yb.at({0, c, 7, 7})));
    }
    return worst;
  };

  EXPECT_GT(far_corner_diff(with_plus, base, poked), 1e-4f)
      << "plus branch should carry the corner perturbation across the grid";
  EXPECT_FLOAT_EQ(far_corner_diff(without_plus, base, poked), 0.0f)
      << "without the plus branch the conv receptive field cannot reach";
}

data::Batch GridBatch(int64_t h, int64_t w, uint64_t seed) {
  data::PeriodicitySpec spec{.len_closeness = 2, .len_period = 2,
                             .len_trend = 1};
  Rng rng(seed);
  data::Batch b;
  b.closeness = ts::Tensor::RandomUniform(
      ts::Shape({1, spec.ClosenessChannels(), h, w}), rng, -1.0f, 1.0f);
  b.period = ts::Tensor::RandomUniform(
      ts::Shape({1, spec.PeriodChannels(), h, w}), rng, -1.0f, 1.0f);
  b.trend = ts::Tensor::RandomUniform(
      ts::Shape({1, spec.TrendChannels(), h, w}), rng, -1.0f, 1.0f);
  b.target = ts::Tensor::RandomUniform(ts::Shape({1, 2, h, w}), rng, -1.0f,
                                       1.0f);
  b.target_indices.push_back(0);
  return b;
}

TEST(GmanLongRangeTest, AttentionPropagatesAcrossRegions) {
  // GMAN's region attention: a perturbation in one corner region must move
  // the prediction of the opposite corner (tokens attend globally). The
  // grid is large enough that the conv embedding alone cannot reach.
  data::PeriodicitySpec spec{.len_closeness = 2, .len_period = 2,
                             .len_trend = 1};
  baselines::GmanLite model(8, 8, spec, /*dim=*/4, /*seed=*/3);
  model.SetTraining(false);

  data::Batch base = GridBatch(8, 8, 4);
  data::Batch poked = base;
  for (int64_t c = 0; c < poked.closeness.dim(1); ++c) {
    poked.closeness.at({0, c, 0, 0}) = 1.0f;
  }
  ts::Tensor ya = model.Predict(base);
  ts::Tensor yb = model.Predict(poked);
  float far_diff = 0.0f;
  for (int flow = 0; flow < 2; ++flow) {
    far_diff = std::max(far_diff, std::fabs(ya.at({0, flow, 7, 7}) -
                                            yb.at({0, flow, 7, 7})));
  }
  EXPECT_GT(far_diff, 1e-5f);
}

TEST(StSslTest, AuxiliaryObjectiveChangesTraining) {
  // Same seed, same data: training with the SSL branch must land on
  // different weights than training a masked-weight-0 equivalent would —
  // verified indirectly: two ST-SSL instances with different ssl weights
  // diverge after training.
  const int f = 24;
  sim::FlowSeries flows(sim::GridSpec{3, 4}, f, 0, 12 * f);
  Rng noise(5);
  for (int64_t t = 0; t < flows.num_intervals(); ++t) {
    for (int flow = 0; flow < 2; ++flow) {
      for (int64_t h = 0; h < 3; ++h) {
        for (int64_t w = 0; w < 4; ++w) {
          flows.at(t, flow, h, w) = static_cast<float>(
              5.0 + 3.0 * std::sin(2.0 * M_PI * (t % f) / f) +
              noise.Normal(0, 0.3));
        }
      }
    }
  }
  data::DatasetOptions options;
  options.spec = data::PeriodicitySpec{.len_closeness = 2, .len_period = 2,
                                       .len_trend = 1};
  options.test_days = 2;
  data::TrafficDataset ds(std::move(flows), options);

  baselines::StSslLite strong(3, 4, options.spec, 4, 0.15, /*ssl=*/2.0, 6);
  baselines::StSslLite weak(3, 4, options.spec, 4, 0.15, /*ssl=*/0.01, 6);
  eval::TrainConfig tc;
  tc.epochs = 3;
  tc.seed = 6;
  strong.Train(ds, tc);
  weak.Train(ds, tc);

  data::Batch probe = ds.MakeBatch({ds.test_indices().front()});
  EXPECT_GT(MaxAbsDiff(strong.Predict(probe), weak.Predict(probe)), 1e-5f);
}

}  // namespace
}  // namespace musenet
