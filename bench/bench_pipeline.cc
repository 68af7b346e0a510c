#include "bench/bench_pipeline.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "infer/engine.h"
#include "sim/serialize.h"
#include "tensor/serialize.h"
#include "util/check.h"
#include "util/string_util.h"

namespace musenet::bench {

namespace ts = musenet::tensor;

Result<TrainOverride> ParseTrainOverride(const std::string& text) {
  const size_t colon = text.find(':');
  const size_t eq = text.find('=', colon == std::string::npos ? 0 : colon);
  if (colon == std::string::npos || eq == std::string::npos || colon == 0 ||
      eq <= colon + 1 || eq + 1 >= text.size()) {
    return Status::InvalidArgument(
        "override '" + text + "' is not of the form MODEL:key=value");
  }
  TrainOverride ov;
  ov.model = text.substr(0, colon);
  ov.key = text.substr(colon + 1, eq - colon - 1);
  ov.value = text.substr(eq + 1);
  if (ov.key != "epochs" && ov.key != "lr" && ov.key != "batch" &&
      ov.key != "patience") {
    return Status::InvalidArgument(
        "override key '" + ov.key +
        "' unknown (expected epochs, lr, batch or patience)");
  }
  return ov;
}

namespace {

Result<int> ParseIntValue(const TrainOverride& ov) {
  char* end = nullptr;
  const long v = std::strtol(ov.value.c_str(), &end, 10);
  if (end == ov.value.c_str() || *end != '\0' || v < 0) {
    return Status::InvalidArgument("override " + ov.model + ":" + ov.key +
                                   "=" + ov.value +
                                   ": value is not a non-negative integer");
  }
  return static_cast<int>(v);
}

}  // namespace

Result<eval::TrainConfig> ResolveTrainConfig(
    const ExperimentContext& ctx, const std::string& model_name,
    const std::vector<TrainOverride>& overrides) {
  eval::TrainConfig tc = ctx.train;
  for (const TrainOverride& ov : overrides) {
    if (ov.model != "*" && ov.model != model_name) continue;
    if (ov.key == "lr") {
      char* end = nullptr;
      const double v = std::strtod(ov.value.c_str(), &end);
      if (end == ov.value.c_str() || *end != '\0' || v <= 0.0) {
        return Status::InvalidArgument("override " + ov.model +
                                       ":lr=" + ov.value +
                                       ": value is not a positive number");
      }
      tc.learning_rate = v;
      continue;
    }
    auto v = ParseIntValue(ov);
    if (!v.ok()) return v.status();
    if (ov.key == "epochs") tc.epochs = *v;
    else if (ov.key == "batch") tc.batch_size = std::max(1, *v);
    else tc.patience = *v;
  }
  return tc;
}

std::string BucketTag(eval::TimeBucket bucket) {
  switch (bucket) {
    case eval::TimeBucket::kAll:     return "all";
    case eval::TimeBucket::kPeak:    return "peak";
    case eval::TimeBucket::kNonPeak: return "nonpeak";
    case eval::TimeBucket::kWeekday: return "weekday";
    case eval::TimeBucket::kWeekend: return "weekend";
  }
  return "all";
}

// --- Payload codecs -------------------------------------------------------

Result<std::string> SerializePredictionSeries(
    const eval::PredictionSeries& series) {
  ts::Tensor idx(
      ts::Shape({static_cast<int64_t>(series.target_indices.size())}));
  for (size_t i = 0; i < series.target_indices.size(); ++i) {
    idx.flat(static_cast<int64_t>(i)) =
        static_cast<float>(series.target_indices[i]);
  }
  std::map<std::string, ts::Tensor> blob;
  blob.emplace("predictions", series.predictions);
  blob.emplace("truths", series.truths);
  blob.emplace("indices", std::move(idx));
  return ts::SerializeTensors(blob);
}

Result<eval::PredictionSeries> ParsePredictionSeries(
    const std::string& label, const std::string& bytes) {
  auto blob = ts::ParseTensors(label, bytes);
  if (!blob.ok()) return blob.status();
  if (!blob->count("predictions") || !blob->count("truths") ||
      !blob->count("indices")) {
    return Status::IoError(label +
                           ": prediction-series payload is missing records");
  }
  eval::PredictionSeries series;
  series.predictions = blob->at("predictions");
  series.truths = blob->at("truths");
  const ts::Tensor& idx = blob->at("indices");
  series.target_indices.reserve(static_cast<size_t>(idx.num_elements()));
  for (int64_t i = 0; i < idx.num_elements(); ++i) {
    series.target_indices.push_back(static_cast<int64_t>(idx.flat(i)));
  }
  return series;
}

std::string SerializeFlowMetrics(const eval::FlowMetrics& metrics) {
  util::Fingerprint text;
  text.Add("outflow.rmse", metrics.outflow.rmse)
      .Add("outflow.mae", metrics.outflow.mae)
      .Add("outflow.mape", metrics.outflow.mape)
      .Add("inflow.rmse", metrics.inflow.rmse)
      .Add("inflow.mae", metrics.inflow.mae)
      .Add("inflow.mape", metrics.inflow.mape);
  return text.canonical();
}

Result<eval::FlowMetrics> ParseFlowMetrics(const std::string& label,
                                           const std::string& text) {
  std::map<std::string, double> fields;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    fields[line.substr(0, eq)] = std::atof(line.c_str() + eq + 1);
  }
  for (const char* key :
       {"outflow.rmse", "outflow.mae", "outflow.mape", "inflow.rmse",
        "inflow.mae", "inflow.mape"}) {
    if (!fields.count(key)) {
      return Status::IoError(label + ": metrics payload is missing '" +
                             key + "'");
    }
  }
  eval::FlowMetrics m;
  m.outflow = {fields["outflow.rmse"], fields["outflow.mae"],
               fields["outflow.mape"]};
  m.inflow = {fields["inflow.rmse"], fields["inflow.mae"],
              fields["inflow.mape"]};
  return m;
}

// --- Stage builders -------------------------------------------------------

namespace {

data::DatasetOptions DatasetOptionsFor(const ExperimentContext& ctx,
                                       int64_t horizon_offset) {
  data::DatasetOptions options;
  options.horizon_offset = horizon_offset;
  options.max_train_samples = ctx.max_train_samples;
  return options;
}

std::string DatasetStageName(sim::DatasetId id, int64_t horizon_offset) {
  return "dataset/" + sim::DatasetName(id) + "/h" +
         std::to_string(horizon_offset);
}

}  // namespace

int AddSimulateStage(pipeline::Pipeline* p, const ExperimentContext& ctx,
                     sim::DatasetId id) {
  const std::string name = "simulate/" + sim::DatasetName(id);
  const int existing = p->FindStage(name);
  if (existing >= 0) return existing;

  const uint64_t sim_hash = sim::SimConfigHash(id, ctx.scale, ctx.scale.seed);
  util::Fingerprint config;
  config.Add("dataset", sim::DatasetName(id))
      .Add("seed", ctx.scale.seed)
      .Add("days", ctx.scale.days)
      .Add("grid_h", ctx.scale.grid_h)
      .Add("grid_w", ctx.scale.grid_w)
      .Add("sim_config_hash", util::HashHex(sim_hash));

  const BenchScale scale = ctx.scale;
  return p->AddStage(
      name, std::move(config), {},
      [id, scale, sim_hash](const pipeline::StageContext&)
          -> Result<std::string> {
        sim::FlowSeries flows =
            sim::GenerateDatasetFlows(id, scale, scale.seed);
        return sim::SerializeFlowSeries(flows, sim_hash);
      });
}

int AddDatasetStage(pipeline::Pipeline* p, const ExperimentContext& ctx,
                    sim::DatasetId id, int64_t horizon_offset,
                    int simulate_stage) {
  const std::string name = DatasetStageName(id, horizon_offset);
  const int existing = p->FindStage(name);
  if (existing >= 0) return existing;

  const data::DatasetOptions options = DatasetOptionsFor(ctx, horizon_offset);
  util::Fingerprint config;
  config.Add("horizon_offset", options.horizon_offset)
      .Add("len_closeness", options.spec.len_closeness)
      .Add("len_period", options.spec.len_period)
      .Add("len_trend", options.spec.len_trend)
      .Add("test_days", options.test_days)
      .Add("validation_fraction", options.validation_fraction)
      .Add("max_train_samples", options.max_train_samples);

  return p->AddStage(
      name, std::move(config), {simulate_stage},
      [name, options](const pipeline::StageContext& c)
          -> Result<std::string> {
        auto flows = sim::ParseFlowSeries(name, *c.dep_payloads[0]);
        if (!flows.ok()) return flows.status();
        data::TrafficDataset dataset(std::move(flows).value(), options);
        // Canonical dataset summary: everything downstream training depends
        // on beyond the raw flows. Its hash gates the train stages, so a
        // dataset-option change invalidates them through this one node.
        util::Fingerprint summary;
        summary.Add("horizon_offset", options.horizon_offset)
            .Add("len_closeness", options.spec.len_closeness)
            .Add("len_period", options.spec.len_period)
            .Add("len_trend", options.spec.len_trend)
            .Add("max_train_samples", options.max_train_samples)
            .Add("split.train",
                 static_cast<int64_t>(dataset.train_indices().size()))
            .Add("split.val",
                 static_cast<int64_t>(dataset.val_indices().size()))
            .Add("split.test",
                 static_cast<int64_t>(dataset.test_indices().size()))
            .Add("scaler.min",
                 static_cast<double>(dataset.scaler().min_value()))
            .Add("scaler.max",
                 static_cast<double>(dataset.scaler().max_value()));
        return summary.canonical();
      });
}

Result<int> AddTrainStage(pipeline::Pipeline* p, const ExperimentContext& ctx,
                          sim::DatasetId id, const std::string& model_name,
                          int64_t horizon_offset, int simulate_stage,
                          int dataset_stage,
                          const std::vector<TrainOverride>& overrides) {
  const std::string name = "train/" + sim::DatasetName(id) + "/h" +
                           std::to_string(horizon_offset) + "/" + model_name;
  const int existing = p->FindStage(name);
  if (existing >= 0) return existing;

  auto tc = ResolveTrainConfig(ctx, model_name, overrides);
  if (!tc.ok()) return tc.status();
  util::Fingerprint config;
  config.Add("model", model_name)
      .Add("epochs", tc->epochs)
      .Add("batch_size", tc->batch_size)
      .Add("learning_rate", tc->learning_rate)
      .Add("clip_norm", tc->clip_norm)
      .Add("seed", tc->seed)
      .Add("patience", tc->patience)
      .Add("repr_dim", ctx.scale.repr_dim)
      .Add("dist_dim", ctx.scale.dist_dim);

  const ExperimentContext ctx_copy = ctx;
  const eval::TrainConfig budget = *tc;
  return p->AddStage(
      name, std::move(config), {simulate_stage, dataset_stage},
      [name, ctx_copy, id, model_name, horizon_offset,
       budget](const pipeline::StageContext& c) -> Result<std::string> {
        auto flows = sim::ParseFlowSeries(name, *c.dep_payloads[0]);
        if (!flows.ok()) return flows.status();
        data::TrafficDataset dataset(
            std::move(flows).value(),
            DatasetOptionsFor(ctx_copy, horizon_offset));
        std::unique_ptr<eval::Forecaster> model =
            MakeModel(model_name, dataset, ctx_copy);

        eval::TrainConfig run = budget;
        run.cancel = c.cancel;
        if (!c.scratch_dir.empty()) {
          // Checkpoints go to the keyed scratch directory: a cancelled
          // training keeps them, and the rerun (same content key → same
          // scratch) resumes bit-identically from the newest one.
          run.checkpoint_dir = c.scratch_dir;
          run.checkpoint_every = 1;
          run.keep_last = 2;
          run.resume = true;
        }
        const Status trained = model->TrainWithStatus(dataset, run);
        if (!trained.ok()) return trained;

        infer::EngineForecaster planned(*model);
        eval::PredictionSeries series = eval::CollectPredictions(
            planned, dataset, dataset.test_indices(), run.batch_size);
        return SerializePredictionSeries(series);
      });
}

Result<int> AddMuseCheckpointStage(
    pipeline::Pipeline* p, const ExperimentContext& ctx, sim::DatasetId id,
    int simulate_stage, int dataset_stage,
    const std::vector<TrainOverride>& overrides) {
  const std::string name = "train-muse/" + sim::DatasetName(id);
  const int existing = p->FindStage(name);
  if (existing >= 0) return existing;

  auto tc = ResolveTrainConfig(ctx, "MUSE-Net", overrides);
  if (!tc.ok()) return tc.status();
  util::Fingerprint config;
  config.Add("model", "MUSE-Net")
      .Add("payload", "state_dict")
      .Add("epochs", tc->epochs)
      .Add("batch_size", tc->batch_size)
      .Add("learning_rate", tc->learning_rate)
      .Add("clip_norm", tc->clip_norm)
      .Add("seed", tc->seed)
      .Add("patience", tc->patience)
      .Add("repr_dim", ctx.scale.repr_dim)
      .Add("dist_dim", ctx.scale.dist_dim);

  const ExperimentContext ctx_copy = ctx;
  const eval::TrainConfig budget = *tc;
  return p->AddStage(
      name, std::move(config), {simulate_stage, dataset_stage},
      [name, ctx_copy, id, budget](const pipeline::StageContext& c)
          -> Result<std::string> {
        auto flows = sim::ParseFlowSeries(name, *c.dep_payloads[0]);
        if (!flows.ok()) return flows.status();
        data::TrafficDataset dataset(std::move(flows).value(),
                                     DatasetOptionsFor(ctx_copy, 0));
        muse::MuseNet model(MakeMuseConfig(dataset, ctx_copy),
                            ctx_copy.scale.seed);
        eval::TrainConfig run = budget;
        run.cancel = c.cancel;
        if (!c.scratch_dir.empty()) {
          run.checkpoint_dir = c.scratch_dir;
          run.checkpoint_every = 1;
          run.keep_last = 2;
          run.resume = true;
        }
        const Status trained = model.TrainWithStatus(dataset, run);
        if (!trained.ok()) return trained;
        return ts::SerializeTensors(model.StateDict());
      });
}

int AddEvalStage(pipeline::Pipeline* p, const ExperimentContext& ctx,
                 sim::DatasetId id, const std::string& model_name,
                 int64_t horizon_offset, eval::TimeBucket bucket,
                 int simulate_stage, int train_stage) {
  (void)ctx;
  const std::string name = "eval/" + sim::DatasetName(id) + "/h" +
                           std::to_string(horizon_offset) + "/" + model_name +
                           "/" + BucketTag(bucket);
  const int existing = p->FindStage(name);
  if (existing >= 0) return existing;

  util::Fingerprint config;
  config.Add("bucket", BucketTag(bucket));
  return p->AddStage(
      name, std::move(config), {simulate_stage, train_stage},
      [name, bucket](const pipeline::StageContext& c)
          -> Result<std::string> {
        auto flows = sim::ParseFlowSeries(name, *c.dep_payloads[0]);
        if (!flows.ok()) return flows.status();
        auto series = ParsePredictionSeries(name, *c.dep_payloads[1]);
        if (!series.ok()) return series.status();
        return SerializeFlowMetrics(
            MetricsFromFlows(*series, *flows, bucket));
      });
}

Result<TablePrinter> OneStepTableFromPayloads(
    const std::vector<std::string>& models,
    const std::vector<const std::string*>& metric_payloads) {
  MUSE_CHECK(models.size() == metric_payloads.size())
      << "one metrics payload per model expected";
  TablePrinter table({"Method", "Out RMSE", "Out MAE", "Out MAPE", "In RMSE",
                      "In MAE", "In MAPE"});
  double best_baseline_out_rmse = 1e18;
  double best_baseline_in_rmse = 1e18;
  double muse_out_rmse = 0.0;
  double muse_in_rmse = 0.0;
  bool has_muse = false;
  bool has_baseline = false;

  for (size_t i = 0; i < models.size(); ++i) {
    auto m = ParseFlowMetrics(models[i], *metric_payloads[i]);
    if (!m.ok()) return m.status();
    table.AddRow({models[i], F2(m->outflow.rmse), F2(m->outflow.mae),
                  Pct(m->outflow.mape), F2(m->inflow.rmse), F2(m->inflow.mae),
                  Pct(m->inflow.mape)});
    if (models[i] == "MUSE-Net") {
      muse_out_rmse = m->outflow.rmse;
      muse_in_rmse = m->inflow.rmse;
      has_muse = true;
    } else if (models[i] != "HistoricalAverage") {
      // The paper's Improvement row compares against the best *published*
      // baseline.
      best_baseline_out_rmse =
          std::min(best_baseline_out_rmse, m->outflow.rmse);
      best_baseline_in_rmse = std::min(best_baseline_in_rmse, m->inflow.rmse);
      has_baseline = true;
    }
  }
  if (has_muse && has_baseline) {
    table.AddSeparator();
    table.AddRow(
        {"Improvement (RMSE)",
         Pct(eval::Improvement(best_baseline_out_rmse, muse_out_rmse)), "",
         "", Pct(eval::Improvement(best_baseline_in_rmse, muse_in_rmse)), "",
         ""});
  }
  return table;
}

int AddOneStepTableStage(pipeline::Pipeline* p, const std::string& table_name,
                         const std::vector<std::string>& models,
                         const std::vector<int>& eval_stages) {
  const std::string name = "table/" + table_name;
  const int existing = p->FindStage(name);
  if (existing >= 0) return existing;

  std::string roster;
  for (const std::string& m : models) {
    if (!roster.empty()) roster += ",";
    roster += m;
  }
  util::Fingerprint config;
  config.Add("models", roster);
  const std::vector<std::string> models_copy = models;
  return p->AddStage(
      name, std::move(config), eval_stages,
      [models_copy](const pipeline::StageContext& c) -> Result<std::string> {
        auto table = OneStepTableFromPayloads(models_copy, c.dep_payloads);
        if (!table.ok()) return table.status();
        return table->ToCsv();
      });
}

// --- Full graphs ----------------------------------------------------------

Result<OneStepGraph> BuildOneStepGraph(
    pipeline::Pipeline* p, const ExperimentContext& ctx,
    const std::vector<sim::DatasetId>& datasets,
    const std::vector<std::string>& models, int64_t horizon_offset,
    eval::TimeBucket bucket, const std::vector<TrainOverride>& overrides) {
  const std::vector<std::string> known = ModelNames();
  for (const std::string& model : models) {
    if (std::find(known.begin(), known.end(), model) == known.end()) {
      return Status::InvalidArgument("unknown model '" + model +
                                     "'; known: " + StrJoin(known, ","));
    }
  }
  OneStepGraph graph;
  graph.datasets = datasets;
  for (const sim::DatasetId id : datasets) {
    const int sim_stage = AddSimulateStage(p, ctx, id);
    const int ds_stage =
        AddDatasetStage(p, ctx, id, horizon_offset, sim_stage);
    std::vector<int> evals;
    for (const std::string& model : models) {
      auto train = AddTrainStage(p, ctx, id, model, horizon_offset, sim_stage,
                                 ds_stage, overrides);
      if (!train.ok()) return train.status();
      evals.push_back(AddEvalStage(p, ctx, id, model, horizon_offset, bucket,
                                   sim_stage, *train));
    }
    std::string table_name;
    if (horizon_offset == 0 && bucket == eval::TimeBucket::kAll) {
      table_name = "table2_onestep_" + sim::DatasetName(id);
    } else {
      table_name = "table_h" + std::to_string(horizon_offset) + "_" +
                   BucketTag(bucket) + "_" + sim::DatasetName(id);
    }
    graph.table_stages.push_back(
        AddOneStepTableStage(p, table_name, models, evals));
    graph.eval_stages.push_back(std::move(evals));
  }
  return graph;
}

std::string PipelineCacheDir(const ExperimentContext& ctx) {
  if (GetEnvOr("MUSE_BENCH_NO_CACHE", "0") == "1") return "";
  return ctx.results_dir + "/cache/pipeline";
}

}  // namespace musenet::bench
