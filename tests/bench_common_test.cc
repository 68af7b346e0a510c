// Tests for the benchmark harness plumbing in bench/bench_common.* and the
// pipeline stage builders in bench/bench_pipeline.* — context resolution,
// model factory coverage, the cached-series metric computation that Tables
// II/IV/V share, override parsing, payload codecs and stage-graph wiring.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "bench/bench_common.h"
#include "bench/bench_pipeline.h"
#include "tensor/tensor_ops.h"

namespace musenet::bench {
namespace {

namespace ts = musenet::tensor;

ExperimentContext SmokeContext() {
  setenv("MUSE_BENCH_SCALE", "smoke", 1);
  setenv("MUSE_BENCH_RESULTS_DIR", ::testing::TempDir().c_str(), 1);
  ExperimentContext ctx = MakeContext("bench_common_test");
  unsetenv("MUSE_BENCH_SCALE");
  unsetenv("MUSE_BENCH_RESULTS_DIR");
  return ctx;
}

TEST(BenchCommonTest, ContextReflectsScale) {
  ExperimentContext ctx = SmokeContext();
  EXPECT_EQ(ctx.scale.name, "smoke");
  EXPECT_EQ(ctx.train.epochs, ctx.scale.epochs);
  EXPECT_GT(ctx.max_train_samples, 0);
}

TEST(BenchCommonTest, LoadDatasetHonoursScaleGeometry) {
  ExperimentContext ctx = SmokeContext();
  data::TrafficDataset ds = LoadDataset(sim::DatasetId::kNycBike, ctx);
  EXPECT_EQ(ds.grid_height(), ctx.scale.grid_h);
  EXPECT_EQ(ds.grid_width(), ctx.scale.grid_w);
  EXPECT_LE(static_cast<int64_t>(ds.train_indices().size()),
            ctx.max_train_samples);
}

TEST(BenchCommonTest, MakeModelCoversAllTableNames) {
  ExperimentContext ctx = SmokeContext();
  data::TrafficDataset ds = LoadDataset(sim::DatasetId::kNycBike, ctx);
  const std::vector<std::string> names = ModelNames();
  EXPECT_EQ(names.size(), 5 + baselines::AllBaselineNames().size());
  for (const std::string& name : names) {
    auto model = MakeModel(name, ds, ctx);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), name);
  }
}

TEST(BenchCommonTest, MetricsFromSeriesMatchesDirectComputation) {
  ExperimentContext ctx = SmokeContext();
  data::TrafficDataset ds = LoadDataset(sim::DatasetId::kNycBike, ctx);

  // Build a synthetic series: predictions = truths + 2.0 in raw units.
  const auto& test = ds.test_indices();
  const int64_t n = std::min<int64_t>(16, static_cast<int64_t>(test.size()));
  eval::PredictionSeries series;
  std::vector<ts::Tensor> truths;
  for (int64_t i = 0; i < n; ++i) {
    ts::Tensor frame = ds.flows().Frame(test[static_cast<size_t>(i)]);
    truths.push_back(frame.Reshape(ts::Shape(
        {1, frame.dim(0), frame.dim(1), frame.dim(2)})));
    series.target_indices.push_back(test[static_cast<size_t>(i)]);
  }
  series.truths = ts::Concat(truths, 0);
  series.predictions = ts::AddScalar(series.truths, 2.0f);

  eval::FlowMetrics m =
      MetricsFromSeries(series, ds, eval::TimeBucket::kAll);
  EXPECT_NEAR(m.outflow.rmse, 2.0, 1e-4);
  EXPECT_NEAR(m.outflow.mae, 2.0, 1e-4);
  EXPECT_NEAR(m.inflow.rmse, 2.0, 1e-4);

  // Bucketed metrics partition the samples: bucket counts add up.
  eval::FlowMetrics peak =
      MetricsFromSeries(series, ds, eval::TimeBucket::kPeak);
  eval::FlowMetrics off =
      MetricsFromSeries(series, ds, eval::TimeBucket::kNonPeak);
  // Constant error ⇒ same RMSE in every non-empty bucket.
  if (peak.outflow.rmse > 0.0) {
    EXPECT_NEAR(peak.outflow.rmse, 2.0, 1e-4);
  }
  if (off.outflow.rmse > 0.0) {
    EXPECT_NEAR(off.outflow.rmse, 2.0, 1e-4);
  }
}

TEST(BenchCommonTest, Formatters) {
  EXPECT_EQ(F2(3.14159), "3.14");
  EXPECT_EQ(Pct(0.2128), "21.28%");
}

// --- Pipeline stage builders ----------------------------------------------

TEST(BenchPipelineTest, ParseTrainOverride) {
  auto ov = ParseTrainOverride("MUSE-Net:epochs=3");
  ASSERT_TRUE(ov.ok()) << ov.status().ToString();
  EXPECT_EQ(ov->model, "MUSE-Net");
  EXPECT_EQ(ov->key, "epochs");
  EXPECT_EQ(ov->value, "3");

  EXPECT_FALSE(ParseTrainOverride("no-colon=3").ok());
  EXPECT_FALSE(ParseTrainOverride("RNN:epochs").ok());
  EXPECT_FALSE(ParseTrainOverride("RNN:unknown=1").ok());
}

TEST(BenchPipelineTest, ResolveTrainConfigAppliesMatchingOverrides) {
  ExperimentContext ctx = SmokeContext();
  std::vector<TrainOverride> overrides = {
      {"MUSE-Net", "epochs", "3"}, {"*", "lr", "0.01"},
      {"RNN", "patience", "0"}};
  auto muse = ResolveTrainConfig(ctx, "MUSE-Net", overrides);
  ASSERT_TRUE(muse.ok());
  EXPECT_EQ(muse->epochs, 3);
  EXPECT_DOUBLE_EQ(muse->learning_rate, 0.01);
  EXPECT_EQ(muse->patience, ctx.train.patience);

  auto rnn = ResolveTrainConfig(ctx, "RNN", overrides);
  ASSERT_TRUE(rnn.ok());
  EXPECT_EQ(rnn->epochs, ctx.train.epochs);
  EXPECT_EQ(rnn->patience, 0);

  EXPECT_FALSE(
      ResolveTrainConfig(ctx, "RNN", {{"RNN", "epochs", "abc"}}).ok());
}

TEST(BenchPipelineTest, FlowMetricsCodecRoundTrips) {
  eval::FlowMetrics m;
  m.outflow = {2.5, 1.25, 0.333333333333333};
  m.inflow = {4.75, 2.0, 0.1};
  auto parsed = ParseFlowMetrics("test", SerializeFlowMetrics(m));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->outflow.rmse, 2.5);
  EXPECT_DOUBLE_EQ(parsed->outflow.mape, 0.333333333333333);
  EXPECT_DOUBLE_EQ(parsed->inflow.rmse, 4.75);

  EXPECT_FALSE(ParseFlowMetrics("test", "outflow.rmse=1\n").ok());
}

TEST(BenchPipelineTest, OneStepGraphDeclaresExpectedStages) {
  ExperimentContext ctx = SmokeContext();
  pipeline::Pipeline graph;
  auto built = BuildOneStepGraph(
      &graph, ctx, {sim::DatasetId::kNycBike},
      {"HistoricalAverage", "MUSE-Net"}, /*horizon_offset=*/0,
      eval::TimeBucket::kAll, /*overrides=*/{});
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  // simulate + dataset + 2×(train, eval) + table = 7 stages.
  EXPECT_EQ(graph.num_stages(), 7);
  EXPECT_GE(graph.FindStage("simulate/NYC-Bike"), 0);
  EXPECT_GE(graph.FindStage("dataset/NYC-Bike/h0"), 0);
  EXPECT_GE(graph.FindStage("train/NYC-Bike/h0/MUSE-Net"), 0);
  EXPECT_GE(graph.FindStage("eval/NYC-Bike/h0/HistoricalAverage/all"), 0);
  EXPECT_GE(graph.FindStage("table/table2_onestep_NYC-Bike"), 0);

  // Builders are idempotent: declaring the same graph again adds nothing.
  auto again = BuildOneStepGraph(
      &graph, ctx, {sim::DatasetId::kNycBike},
      {"HistoricalAverage", "MUSE-Net"}, 0, eval::TimeBucket::kAll, {});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(graph.num_stages(), 7);
}

TEST(BenchPipelineTest, UnknownModelIsRejectedBeforeAnyStage) {
  ExperimentContext ctx = SmokeContext();
  pipeline::Pipeline graph;
  auto built = BuildOneStepGraph(
      &graph, ctx, {sim::DatasetId::kNycBike}, {"HistoricalAverage", "Bogus"},
      /*horizon_offset=*/0, eval::TimeBucket::kAll, /*overrides=*/{});
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("'Bogus'"), std::string::npos)
      << built.status().ToString();
  EXPECT_EQ(graph.num_stages(), 0);
}

TEST(BenchPipelineTest, TinyGraphRunsAndWarmRerunsHit) {
  // End-to-end at smoke scale with a cheap model roster: cold run misses,
  // warm run hits everything and reproduces the table bytes.
  ExperimentContext ctx = SmokeContext();
  ctx.train.epochs = 1;
  ctx.results_dir = ::testing::TempDir() + "/bench_pipeline_e2e";
  std::filesystem::remove_all(ctx.results_dir);  // TempDir outlives runs.
  const std::string cache = ctx.results_dir + "/cache/pipeline";

  std::string first_csv;
  for (int round = 0; round < 2; ++round) {
    pipeline::Pipeline graph;
    auto built = BuildOneStepGraph(&graph, ctx, {sim::DatasetId::kNycBike},
                                   {"HistoricalAverage"}, 0,
                                   eval::TimeBucket::kAll, {});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    pipeline::Pipeline::RunOptions options;
    options.cache_dir = cache;
    options.verbose = false;
    auto run = graph.Run(options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const std::string& csv = graph.payload(built->table_stages[0]);
    EXPECT_NE(csv.find("HistoricalAverage"), std::string::npos);
    if (round == 0) {
      EXPECT_EQ(run->misses, graph.num_stages());
      first_csv = csv;
    } else {
      EXPECT_EQ(run->hits, graph.num_stages());
      EXPECT_EQ(csv, first_csv);  // Cached rerun is byte-identical.
    }
  }
}

}  // namespace
}  // namespace musenet::bench
