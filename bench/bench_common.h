#ifndef MUSENET_BENCH_BENCH_COMMON_H_
#define MUSENET_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "data/dataset.h"
#include "eval/evaluate.h"
#include "eval/forecaster.h"
#include "muse/config.h"
#include "muse/model.h"
#include "sim/presets.h"
#include "util/bench_config.h"
#include "util/table.h"

namespace musenet::bench {

/// Shared configuration of one experiment binary run: the bench scale, the
/// uniform training budget every model receives, and result/cache locations.
struct ExperimentContext {
  BenchScale scale;
  eval::TrainConfig train;
  int64_t max_train_samples = 0;
  std::string results_dir = "results";
};

/// Resolves the context from MUSE_BENCH_SCALE / MUSE_BENCH_SEED and prints a
/// self-describing banner (experiment name, scale, seed, budget) so every
/// output is reproducible from its log.
///
/// Note on the training budget: the paper trains with Adam at lr 2e-4 for
/// 350 epochs; the single-core reproduction uses lr 1e-3 with the scale's
/// epoch budget (30 at "default"), which reaches the comparable regime in
/// minutes instead of hours. `MUSE_BENCH_SCALE=paper` restores the paper's
/// setting.
ExperimentContext MakeContext(const std::string& experiment_name);

/// Generates (deterministically) and intercepts one benchmark dataset.
data::TrafficDataset LoadDataset(sim::DatasetId id,
                                 const ExperimentContext& ctx,
                                 int64_t horizon_offset = 0);

/// MUSE-Net configuration matched to a dataset at the context's scale.
muse::MuseNetConfig MakeMuseConfig(const data::TrafficDataset& dataset,
                                   const ExperimentContext& ctx);

/// Baseline sizing matched to a dataset at the context's scale.
baselines::BaselineSizing MakeSizing(const data::TrafficDataset& dataset,
                                     const ExperimentContext& ctx);

/// Every name MakeModel accepts: "MUSE-Net", the four MUSE variant names,
/// then baselines::AllBaselineNames().
std::vector<std::string> ModelNames();

/// Creates a forecaster by table name: "MUSE-Net", a MUSE variant name, or
/// any baseline name from baselines::AllBaselineNames().
std::unique_ptr<eval::Forecaster> MakeModel(const std::string& name,
                                            const data::TrafficDataset& ds,
                                            const ExperimentContext& ctx);

/// Trains `name` on the dataset and collects re-scaled test predictions —
/// or loads them from the on-disk cache if this (scale, seed, dataset,
/// horizon, model) combination ran before. The cache lets Tables IV/V and
/// Fig. 4 reuse Table II's trainings. Set MUSE_BENCH_NO_CACHE=1 to disable.
eval::PredictionSeries GetOrComputePredictions(sim::DatasetId id,
                                               const std::string& model_name,
                                               int64_t horizon_offset,
                                               const ExperimentContext& ctx);

/// Trains (or loads from the checkpoint cache) the full MUSE-Net for a
/// dataset at this context's scale. Used by the representation-analysis
/// figures (Figs. 5–8), which need the model itself, not just predictions.
std::unique_ptr<muse::MuseNet> GetOrTrainMuse(sim::DatasetId id,
                                              const data::TrafficDataset& ds,
                                              const ExperimentContext& ctx);

/// Computes bucketed flow metrics from a cached prediction series.
eval::FlowMetrics MetricsFromSeries(const eval::PredictionSeries& series,
                                    const data::TrafficDataset& dataset,
                                    eval::TimeBucket bucket);

/// As MetricsFromSeries, but from the raw flows (the metrics only need the
/// series and the bucket calendar; pipeline eval stages call this without
/// rebuilding a dataset).
eval::FlowMetrics MetricsFromFlows(const eval::PredictionSeries& series,
                                   const sim::FlowSeries& flows,
                                   eval::TimeBucket bucket);

/// Formats helpers for paper-style cells.
std::string F2(double v);               ///< "12.34".
std::string Pct(double fraction);       ///< "21.28%".

/// Prints the table and writes `<results_dir>/<name>.csv`.
void EmitTable(const ExperimentContext& ctx, const std::string& name,
               TablePrinter& table);

/// Writes pre-rendered CSV bytes to `<results_dir>/<name>.csv` atomically.
/// Used by the pipeline path, where the table stage's cached payload *is*
/// the artifact — a warm rerun rewrites it byte-identically.
void EmitCsv(const ExperimentContext& ctx, const std::string& name,
             const std::string& csv);

}  // namespace musenet::bench

#endif  // MUSENET_BENCH_BENCH_COMMON_H_
