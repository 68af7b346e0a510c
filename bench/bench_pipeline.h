#ifndef MUSENET_BENCH_BENCH_PIPELINE_H_
#define MUSENET_BENCH_BENCH_PIPELINE_H_

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "eval/splits.h"
#include "pipeline/pipeline.h"

namespace musenet::bench {

/// Paper-specific stage builders on top of musenet::pipeline — the
/// experiment DAG behind the table/figure binaries and the `musenet
/// pipeline` CLI verb:
///
///   simulate/<ds>                      city simulation → FlowSeries bytes
///   dataset/<ds>/h<h>                  interception/split/scaler summary
///   train/<ds>/h<h>/<model>            train + collect test predictions
///   train-muse/<ds>                    full MUSE-Net state dict (figures)
///   eval/<ds>/h<h>/<model>/<bucket>    bucketed RMSE/MAE/MAPE text
///   table/<name>                       CSV bytes of a paper-style table
///
/// Every builder fingerprints exactly the inputs its stage function reads,
/// so editing one model's training budget reruns that model's train/eval
/// stages (and the tables downstream) and nothing else.

/// One "MODEL:key=value" training override (CLI --override). `model` "*"
/// matches every model. Keys: epochs, lr, batch, patience.
struct TrainOverride {
  std::string model;
  std::string key;
  std::string value;
};

/// Parses "MODEL:key=value"; rejects unknown keys and malformed text.
Result<TrainOverride> ParseTrainOverride(const std::string& text);

/// The context's training budget with every matching override applied.
Result<eval::TrainConfig> ResolveTrainConfig(
    const ExperimentContext& ctx, const std::string& model_name,
    const std::vector<TrainOverride>& overrides);

/// Short bucket tag used in stage names ("all", "peak", "nonpeak",
/// "weekday", "weekend").
std::string BucketTag(eval::TimeBucket bucket);

// --- Payload codecs -------------------------------------------------------

/// Prediction-series payloads are tensor-container bytes (records
/// "predictions", "truths", "indices") — the same integrity-checked format
/// as model checkpoints.
Result<std::string> SerializePredictionSeries(
    const eval::PredictionSeries& series);
Result<eval::PredictionSeries> ParsePredictionSeries(
    const std::string& label, const std::string& bytes);

/// Metric payloads are canonical "outflow.rmse=<%.17g>\n..." text — small,
/// diffable, and hash-stable across runs and thread counts.
std::string SerializeFlowMetrics(const eval::FlowMetrics& metrics);
Result<eval::FlowMetrics> ParseFlowMetrics(const std::string& label,
                                           const std::string& text);

// --- Stage builders -------------------------------------------------------

/// simulate/<ds>: runs the city simulation at the context's scale and seed.
/// Payload: FlowSeries container bytes, provenance-stamped with
/// sim::SimConfigHash.
int AddSimulateStage(pipeline::Pipeline* p, const ExperimentContext& ctx,
                     sim::DatasetId id);

/// dataset/<ds>/h<h>: builds the intercepted/split/scaled dataset and emits
/// a canonical summary (options, split sizes, scaler range). Downstream
/// train stages depend on it so that any dataset-option change invalidates
/// them through one node.
int AddDatasetStage(pipeline::Pipeline* p, const ExperimentContext& ctx,
                    sim::DatasetId id, int64_t horizon_offset,
                    int simulate_stage);

/// train/<ds>/h<h>/<model>: trains `model_name` under the resolved budget
/// and collects re-scaled test predictions through the inference engine.
/// Cancellable at step boundaries; with a cache dir, checkpoints land in
/// the stage's keyed scratch directory so an interrupted training resumes.
Result<int> AddTrainStage(pipeline::Pipeline* p, const ExperimentContext& ctx,
                          sim::DatasetId id, const std::string& model_name,
                          int64_t horizon_offset, int simulate_stage,
                          int dataset_stage,
                          const std::vector<TrainOverride>& overrides = {});

/// train-muse/<ds>: full MUSE-Net state dict for the representation-analysis
/// figures, which need the model itself rather than its predictions.
Result<int> AddMuseCheckpointStage(
    pipeline::Pipeline* p, const ExperimentContext& ctx, sim::DatasetId id,
    int simulate_stage, int dataset_stage,
    const std::vector<TrainOverride>& overrides = {});

/// eval/<ds>/h<h>/<model>/<bucket>: bucketed flow metrics of a train stage's
/// prediction series.
int AddEvalStage(pipeline::Pipeline* p, const ExperimentContext& ctx,
                 sim::DatasetId id, const std::string& model_name,
                 int64_t horizon_offset, eval::TimeBucket bucket,
                 int simulate_stage, int train_stage);

/// Builds the Table-II-style comparison table (method rows + the paper's
/// Improvement row) from the eval payloads of `models` (same order).
Result<TablePrinter> OneStepTableFromPayloads(
    const std::vector<std::string>& models,
    const std::vector<const std::string*>& metric_payloads);

/// table/<name>: CSV bytes of the one-step comparison table over `models`,
/// whose eval stages are `eval_stages` (same order).
int AddOneStepTableStage(pipeline::Pipeline* p, const std::string& table_name,
                         const std::vector<std::string>& models,
                         const std::vector<int>& eval_stages);

// --- Full graphs ----------------------------------------------------------

/// The complete one-step comparison DAG: per dataset, simulate → dataset →
/// one train+eval per model → one table stage.
struct OneStepGraph {
  std::vector<sim::DatasetId> datasets;
  /// table_stages[i] is the table stage id for datasets[i].
  std::vector<int> table_stages;
  /// eval_stages[i][j] is the eval stage id for datasets[i] × models[j].
  std::vector<std::vector<int>> eval_stages;
};

/// InvalidArgument naming the first entry of `models` that ModelNames()
/// does not list, before any stage is added.
Result<OneStepGraph> BuildOneStepGraph(
    pipeline::Pipeline* p, const ExperimentContext& ctx,
    const std::vector<sim::DatasetId>& datasets,
    const std::vector<std::string>& models, int64_t horizon_offset,
    eval::TimeBucket bucket, const std::vector<TrainOverride>& overrides);

/// Cache directory used by the pipeline-backed bench caches:
/// `<results_dir>/cache/pipeline`, or "" (caching off) when
/// MUSE_BENCH_NO_CACHE=1.
std::string PipelineCacheDir(const ExperimentContext& ctx);

}  // namespace musenet::bench

#endif  // MUSENET_BENCH_BENCH_PIPELINE_H_
