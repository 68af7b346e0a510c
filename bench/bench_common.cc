#include "bench/bench_common.h"

#include <cstdio>
#include <filesystem>

#include "bench/bench_pipeline.h"
#include "tensor/serialize.h"
#include "util/check.h"
#include "util/io.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace musenet::bench {

namespace ts = musenet::tensor;

ExperimentContext MakeContext(const std::string& experiment_name) {
  ExperimentContext ctx;
  ctx.scale = ResolveBenchScale();
  ctx.train.epochs = ctx.scale.epochs;
  ctx.train.batch_size = ctx.scale.batch_size;
  ctx.train.seed = ctx.scale.seed;
  ctx.train.learning_rate = ctx.scale.name == "paper" ? 2e-4 : 1e-3;
  // Early stopping keeps the budget bounded while letting slow-converging
  // models (MUSE-Net trains more parameters than the baselines) reach their
  // plateau; the rule is identical for every model.
  ctx.train.patience = ctx.scale.name == "paper" ? 0 : 15;
  ctx.max_train_samples = ctx.scale.name == "paper"   ? 0
                          : ctx.scale.name == "smoke" ? 120
                                                      : 320;
  ctx.results_dir = GetEnvOr("MUSE_BENCH_RESULTS_DIR", "results");
  std::filesystem::create_directories(ctx.results_dir);
  std::filesystem::create_directories(ctx.results_dir + "/cache");

  std::printf("=== %s ===\n", experiment_name.c_str());
  std::printf(
      "scale=%s seed=%llu epochs=%d lr=%g batch=%d d=%lld k=%lld "
      "max_train_samples=%lld\n\n",
      ctx.scale.name.c_str(),
      static_cast<unsigned long long>(ctx.scale.seed), ctx.train.epochs,
      ctx.train.learning_rate, ctx.train.batch_size,
      static_cast<long long>(ctx.scale.repr_dim),
      static_cast<long long>(ctx.scale.dist_dim),
      static_cast<long long>(ctx.max_train_samples));
  return ctx;
}

data::TrafficDataset LoadDataset(sim::DatasetId id,
                                 const ExperimentContext& ctx,
                                 int64_t horizon_offset) {
  sim::FlowSeries flows =
      sim::GenerateDatasetFlows(id, ctx.scale, ctx.scale.seed);
  data::DatasetOptions options;
  options.horizon_offset = horizon_offset;
  options.max_train_samples = ctx.max_train_samples;
  return data::TrafficDataset(std::move(flows), options);
}

muse::MuseNetConfig MakeMuseConfig(const data::TrafficDataset& dataset,
                                   const ExperimentContext& ctx) {
  muse::MuseNetConfig config;
  config.grid_h = dataset.grid_height();
  config.grid_w = dataset.grid_width();
  config.periodicity = dataset.options().spec;
  config.repr_dim = ctx.scale.repr_dim;
  config.dist_dim = ctx.scale.dist_dim;
  return config;
}

baselines::BaselineSizing MakeSizing(const data::TrafficDataset& dataset,
                                     const ExperimentContext& ctx) {
  baselines::BaselineSizing sizing;
  sizing.grid_h = dataset.grid_height();
  sizing.grid_w = dataset.grid_width();
  sizing.spec = dataset.options().spec;
  sizing.hidden = ctx.scale.repr_dim;
  sizing.seed = ctx.scale.seed;
  return sizing;
}

namespace {

/// The ablation variants MakeModel builds by name, in Table VI order.
constexpr muse::MuseVariant kVariants[] = {
    muse::MuseVariant::kWithoutSpatial,
    muse::MuseVariant::kWithoutMultiDisentangle,
    muse::MuseVariant::kWithoutSemanticPushing,
    muse::MuseVariant::kWithoutSemanticPulling};

}  // namespace

std::vector<std::string> ModelNames() {
  std::vector<std::string> names = {"MUSE-Net"};
  for (muse::MuseVariant variant : kVariants) {
    names.push_back(muse::VariantName(variant));
  }
  for (const std::string& name : baselines::AllBaselineNames()) {
    names.push_back(name);
  }
  return names;
}

std::unique_ptr<eval::Forecaster> MakeModel(const std::string& name,
                                            const data::TrafficDataset& ds,
                                            const ExperimentContext& ctx) {
  if (name == "MUSE-Net") {
    return std::make_unique<muse::MuseNet>(MakeMuseConfig(ds, ctx),
                                           ctx.scale.seed);
  }
  for (muse::MuseVariant variant : kVariants) {
    if (name == muse::VariantName(variant)) {
      return muse::MakeMuseVariant(MakeMuseConfig(ds, ctx), variant,
                                   ctx.scale.seed);
    }
  }
  auto baseline = baselines::MakeBaseline(name, MakeSizing(ds, ctx));
  MUSE_CHECK(baseline != nullptr) << "unknown model " << name;
  return baseline;
}

namespace {

/// Runs a mini pipeline graph and returns the payload of `want_stage`.
/// Shared by the pipeline-backed bench caches below: the stage cache under
/// `<results_dir>/cache/pipeline` replaces the old flat .tensors files, so
/// the table/figure binaries and the `musenet pipeline` verb now reuse each
/// other's trainings (same content keys → same entries).
const std::string& RunGraphFor(pipeline::Pipeline& graph, int want_stage,
                               const ExperimentContext& ctx,
                               const char* what) {
  pipeline::Pipeline::RunOptions options;
  options.cache_dir = PipelineCacheDir(ctx);
  options.verbose = false;
  util::Stopwatch watch;
  auto run = graph.Run(options);
  MUSE_CHECK(run.ok()) << what << " pipeline failed: "
                       << run.status().ToString();
  const pipeline::StageOutcome& oc = graph.outcome(want_stage);
  if (oc.state == pipeline::StageOutcome::State::kHit) {
    std::printf("  [%s] cached\n", graph.stage_name(want_stage).c_str());
  } else {
    std::printf("  [%s] computed in %.0fs\n",
                graph.stage_name(want_stage).c_str(),
                watch.ElapsedSeconds());
  }
  std::fflush(stdout);
  return graph.payload(want_stage);
}

}  // namespace

eval::PredictionSeries GetOrComputePredictions(sim::DatasetId id,
                                               const std::string& model_name,
                                               int64_t horizon_offset,
                                               const ExperimentContext& ctx) {
  pipeline::Pipeline graph;
  const int sim_stage = AddSimulateStage(&graph, ctx, id);
  const int ds_stage = AddDatasetStage(&graph, ctx, id, horizon_offset,
                                       sim_stage);
  auto train = AddTrainStage(&graph, ctx, id, model_name, horizon_offset,
                             sim_stage, ds_stage);
  MUSE_CHECK(train.ok()) << train.status().ToString();
  const std::string& payload = RunGraphFor(graph, *train, ctx, "train");
  auto series = ParsePredictionSeries(graph.stage_name(*train), payload);
  MUSE_CHECK(series.ok()) << series.status().ToString();
  return std::move(series).value();
}

std::unique_ptr<muse::MuseNet> GetOrTrainMuse(sim::DatasetId id,
                                              const data::TrafficDataset& ds,
                                              const ExperimentContext& ctx) {
  pipeline::Pipeline graph;
  const int sim_stage = AddSimulateStage(&graph, ctx, id);
  const int ds_stage = AddDatasetStage(&graph, ctx, id, /*horizon_offset=*/0,
                                       sim_stage);
  auto train = AddMuseCheckpointStage(&graph, ctx, id, sim_stage, ds_stage);
  MUSE_CHECK(train.ok()) << train.status().ToString();
  const std::string& payload = RunGraphFor(graph, *train, ctx, "train-muse");
  auto state = ts::ParseTensors(graph.stage_name(*train), payload);
  MUSE_CHECK(state.ok()) << state.status().ToString();
  auto model = std::make_unique<muse::MuseNet>(MakeMuseConfig(ds, ctx),
                                               ctx.scale.seed);
  const Status loaded = model->LoadStateDict(*state);
  MUSE_CHECK(loaded.ok()) << loaded.ToString();
  model->SetTraining(false);
  return model;
}

eval::FlowMetrics MetricsFromSeries(const eval::PredictionSeries& series,
                                    const data::TrafficDataset& dataset,
                                    eval::TimeBucket bucket) {
  return MetricsFromFlows(series, dataset.flows(), bucket);
}

eval::FlowMetrics MetricsFromFlows(const eval::PredictionSeries& series,
                                   const sim::FlowSeries& flows,
                                   eval::TimeBucket bucket) {
  eval::MetricAccumulator out_acc;
  eval::MetricAccumulator in_acc;
  const int64_t n = series.predictions.dim(0);
  const int64_t plane =
      series.predictions.dim(2) * series.predictions.dim(3);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t t = series.target_indices[static_cast<size_t>(i)];
    if (!eval::InBucket(flows, t, bucket)) continue;
    for (int flow = 0; flow < 2; ++flow) {
      eval::MetricAccumulator& acc =
          flow == sim::kOutflow ? out_acc : in_acc;
      const int64_t base = (i * 2 + flow) * plane;
      for (int64_t k = 0; k < plane; ++k) {
        acc.Add(series.predictions.flat(base + k),
                series.truths.flat(base + k));
      }
    }
  }
  return eval::FlowMetrics{.outflow = eval::ToRow(out_acc),
                           .inflow = eval::ToRow(in_acc)};
}

std::string F2(double v) { return FormatDouble(v, 2); }

std::string Pct(double fraction) { return FormatPercent(fraction); }

void EmitTable(const ExperimentContext& ctx, const std::string& name,
               TablePrinter& table) {
  std::printf("%s\n", table.ToString().c_str());
  const std::string path = ctx.results_dir + "/" + name + ".csv";
  const Status status = table.WriteCsv(path);
  if (status.ok()) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "CSV write failed: %s\n", status.ToString().c_str());
  }
}

void EmitCsv(const ExperimentContext& ctx, const std::string& name,
             const std::string& csv) {
  const std::string path = ctx.results_dir + "/" + name + ".csv";
  const Status status = util::AtomicWriteFile(path, csv);
  if (status.ok()) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "CSV write failed: %s\n", status.ToString().c_str());
  }
}

}  // namespace musenet::bench
