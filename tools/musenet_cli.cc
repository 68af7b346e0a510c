// Command-line front end to the MUSE-Net library.
//
//   musenet simulate    --dataset taxi --out flows.bin [--days N] [--seed S]
//   musenet train       --flows flows.bin --ckpt model.ckpt [--epochs N] ...
//   musenet evaluate    --flows flows.bin --ckpt model.ckpt
//   musenet predict     --flows flows.bin --ckpt model.ckpt --index I
//   musenet serve       --flows flows.bin --ckpt model.ckpt --requests N ...
//   musenet bench-infer --flows flows.bin --ckpt model.ckpt --iters N ...
//
// `simulate` writes a FlowSeries container; `train` fits MUSE-Net on it and
// writes a checkpoint; `evaluate` reports test metrics; `predict` prints one
// frame's forecast next to the ground truth; `serve` runs the multi-tenant
// hot-swap serving stack (`--ckpt X` alone serves the one tenant
// `default=X`; --obs-port exposes live /metrics, /healthz and /statusz over
// HTTP); `bench-infer` times the graph-free engine against the autograd
// Predict path. Model hyper-parameters at train and load time must match
// (the checkpoint loader validates shapes).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_pipeline.h"
#include "data/dataset.h"
#include "eval/evaluate.h"
#include "infer/engine.h"
#include "obs/expo.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/run_log.h"
#include "obs/trace.h"
#include "muse/model.h"
#include "serve/loadgen.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "serve/status.h"
#include "serve/watcher.h"
#include "sim/presets.h"
#include "sim/serialize.h"
#include "tensor/serialize.h"
#include "util/bench_config.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace musenet {
namespace {

/// Minimal --flag value parser; flags are position-independent.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (StartsWith(argv[i], "--")) {
        values_[argv[i] + 2] = argv[i + 1];
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) != 0; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoi(it->second.c_str());
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

sim::DatasetId ParseDataset(const std::string& name) {
  if (name == "bike") return sim::DatasetId::kNycBike;
  if (name == "bj") return sim::DatasetId::kTaxiBj;
  return sim::DatasetId::kNycTaxi;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// --obs-port / --postmortem handling for `serve`.
/// Starts the exposition server when --obs-port is present (0 = ephemeral;
/// the bound port is printed so scripts can scrape it) and arms the
/// flight-recorder post-mortem when --postmortem names a dump path.
/// Returns false (with a message on stderr) when the server fails to bind.
bool StartObservability(const Args& args,
                        std::unique_ptr<obs::ExpoServer>* server) {
  if (args.Has("postmortem")) {
    obs::SetPostmortemPath(args.Get("postmortem", ""));
    obs::InstallCrashHandler();
  }
  if (!args.Has("obs-port")) return true;
  auto started = obs::ExpoServer::Start(args.GetInt("obs-port", 0));
  if (!started.ok()) {
    std::fprintf(stderr, "error: --obs-port: %s\n",
                 started.status().ToString().c_str());
    return false;
  }
  *server = std::move(started).value();
  std::printf("obs: listening on 127.0.0.1:%d (/metrics /healthz /statusz)\n",
              (*server)->port());
  // Scrape drills read the bound port from a redirected log while the
  // process is still serving; don't leave the line in the stdio buffer.
  std::fflush(stdout);
  return true;
}

/// Resolves the simulation scale the way `simulate` does: the bench scale
/// from the environment with --seed/--days/--grid-h/--grid-w overrides.
/// Shared with LoadForModel so a `--dataset` flag on train/evaluate recomputes
/// the same provenance hash `simulate` stamped.
BenchScale ResolveSimScale(const Args& args) {
  BenchScale scale = ResolveBenchScale();
  scale.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  if (args.GetInt("days", 0) > 0) scale.days = args.GetInt("days", 0);
  if (args.GetInt("grid-h", 0) > 0) scale.grid_h = args.GetInt("grid-h", 0);
  if (args.GetInt("grid-w", 0) > 0) scale.grid_w = args.GetInt("grid-w", 0);
  return scale;
}

int Simulate(const Args& args) {
  const BenchScale scale = ResolveSimScale(args);
  const sim::DatasetId id = ParseDataset(args.Get("dataset", "taxi"));
  const std::string out = args.Get("out", "flows.bin");

  sim::FlowSeries flows = sim::GenerateDatasetFlows(id, scale, scale.seed);
  const uint64_t hash = sim::SimConfigHash(id, scale, scale.seed);
  const Status status = sim::SaveFlowSeries(out, flows, hash);
  if (!status.ok()) return Fail(status);
  std::printf(
      "wrote %s: %lld intervals, %lldx%lld grid, mean flow %.2f, "
      "sim config hash 0x%s\n",
      out.c_str(), static_cast<long long>(flows.num_intervals()),
      static_cast<long long>(flows.grid().height),
      static_cast<long long>(flows.grid().width), flows.MeanValue(),
      util::HashHex(hash).c_str());
  return 0;
}

struct LoadedDataset {
  data::TrafficDataset dataset;
  muse::MuseNetConfig config;
};

/// The provenance hash `flows.bin` must carry, or 0 for no check:
/// --expect-flows-hash takes an explicit hex digest; --dataset recomputes
/// SimConfigHash from the same flag resolution `simulate` used.
uint64_t ExpectedFlowsHash(const Args& args) {
  if (args.Has("expect-flows-hash")) {
    return std::strtoull(args.Get("expect-flows-hash", "0").c_str(), nullptr,
                         16);
  }
  if (args.Has("dataset")) {
    const BenchScale scale = ResolveSimScale(args);
    return sim::SimConfigHash(ParseDataset(args.Get("dataset", "taxi")), scale,
                              scale.seed);
  }
  return 0;
}

Result<LoadedDataset> LoadForModel(const Args& args) {
  MUSE_ASSIGN_OR_RETURN(
      sim::FlowSeries flows,
      sim::LoadFlowSeriesChecked(args.Get("flows", "flows.bin"),
                                 ExpectedFlowsHash(args)));
  data::DatasetOptions options;
  options.max_train_samples = args.GetInt("max_train_samples", 320);
  MUSE_RETURN_IF_ERROR(data::ValidateSeriesLength(flows, options));
  data::TrafficDataset dataset(std::move(flows), options);

  muse::MuseNetConfig config;
  config.grid_h = dataset.grid_height();
  config.grid_w = dataset.grid_width();
  config.repr_dim = args.GetInt("d", 12);
  config.dist_dim = args.GetInt("k", 32);
  return LoadedDataset{std::move(dataset), config};
}

int Train(const Args& args) {
  auto loaded = LoadForModel(args);
  if (!loaded.ok()) return Fail(loaded.status());
  muse::MuseNet model(loaded->config,
                      static_cast<uint64_t>(args.GetInt("seed", 7)));

  eval::TrainConfig train;
  train.epochs = args.GetInt("epochs", 60);
  train.patience = args.GetInt("patience", 15);
  train.learning_rate = std::atof(args.Get("lr", "1e-3").c_str());
  train.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  train.verbose = args.GetInt("verbose", 1) != 0;

  // Fault tolerance: periodic crash-safe checkpoints, resume, and the
  // non-finite policy (see eval/train_loop.h).
  train.checkpoint_dir = args.Get("checkpoint-dir", "");
  train.checkpoint_every = args.GetInt("checkpoint-every", 1);
  train.keep_last = args.GetInt("keep-last", 3);
  train.resume = args.GetInt("resume", 0) != 0;

  // Data-parallel training (see DESIGN.md "Data-parallel training"):
  // --train-shards fixes the numerics, --train-workers only schedules, and
  // --prefetch overlaps the next batch's assembly with the current step.
  train.train_workers = args.GetInt("train-workers", 1);
  train.train_shards = args.GetInt("train-shards", 0);
  train.prefetch = args.GetInt("prefetch", 0) != 0;

  // Observability (see DESIGN.md "Observability"): --run-log streams JSONL
  // training telemetry; --trace-out and --metrics-out write a Perfetto
  // trace and a metrics snapshot at the end of the run.
  train.run_log_path = args.Get("run-log", "");
  train.run_log_timings = args.GetInt("run-log-timings", 1) != 0;
  const std::string trace_out = args.Get("trace-out", "");
  const std::string metrics_out = args.Get("metrics-out", "");
  if (!trace_out.empty()) obs::StartTracing();
  const std::string policy = args.Get("on-nonfinite", "abort");
  if (policy == "skip") {
    train.on_non_finite = eval::FailurePolicy::kSkipBatch;
  } else if (policy == "rollback") {
    train.on_non_finite = eval::FailurePolicy::kRollback;
  } else if (policy == "abort") {
    train.on_non_finite = eval::FailurePolicy::kAbort;
  } else {
    std::fprintf(stderr,
                 "error: --on-nonfinite must be abort, skip or rollback\n");
    return 2;
  }

  eval::TrainReport report;
  const Status trained = model.TrainWithReport(loaded->dataset, train,
                                               &report);
  if (!trace_out.empty()) {
    const Status wrote = obs::StopTracingAndWrite(trace_out);
    if (!wrote.ok()) return Fail(wrote);
    std::printf("wrote trace %s\n", trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    const Status wrote = obs::WriteMetricsSnapshot(metrics_out);
    if (!wrote.ok()) return Fail(wrote);
    std::printf("wrote metrics %s\n", metrics_out.c_str());
  }
  if (!trained.ok()) return Fail(trained);
  if (report.resumed_from_epoch >= 0) {
    std::printf("resumed from epoch %d\n", report.resumed_from_epoch);
  }
  // One-line run summary: everything the report knows, greppable in CI logs.
  std::printf(
      "train summary: epochs=%d steps=%lld best_val=%.6f "
      "skipped_batches=%d rollbacks=%d checkpoint_failures=%d\n",
      report.epochs_run, static_cast<long long>(report.steps),
      report.best_val, report.skipped_batches, report.rollbacks,
      report.checkpoint_write_failures);

  const std::string ckpt = args.Get("ckpt", "model.ckpt");
  const Status status = tensor::SaveTensors(ckpt, model.StateDict());
  if (!status.ok()) return Fail(status);
  std::printf("wrote %s (%lld parameters)\n", ckpt.c_str(),
              static_cast<long long>(model.NumParameters()));
  return 0;
}

Result<std::unique_ptr<muse::MuseNet>> LoadModel(
    const Args& args, const muse::MuseNetConfig& config) {
  auto model = std::make_unique<muse::MuseNet>(
      config, static_cast<uint64_t>(args.GetInt("seed", 7)));
  MUSE_ASSIGN_OR_RETURN(auto state,
                        tensor::LoadTensors(args.Get("ckpt", "model.ckpt")));
  MUSE_RETURN_IF_ERROR(model->LoadStateDict(state));
  model->SetTraining(false);
  return model;
}

int Evaluate(const Args& args) {
  auto loaded = LoadForModel(args);
  if (!loaded.ok()) return Fail(loaded.status());
  auto model = LoadModel(args, loaded->config);
  if (!model.ok()) return Fail(model.status());

  eval::FlowMetrics m = eval::EvaluateOnTest(**model, loaded->dataset, 8);
  std::printf("test outflow: RMSE %.2f  MAE %.2f  MAPE %s\n", m.outflow.rmse,
              m.outflow.mae, FormatPercent(m.outflow.mape).c_str());
  std::printf("test inflow:  RMSE %.2f  MAE %.2f  MAPE %s\n", m.inflow.rmse,
              m.inflow.mae, FormatPercent(m.inflow.mape).c_str());
  return 0;
}

int Predict(const Args& args) {
  auto loaded = LoadForModel(args);
  if (!loaded.ok()) return Fail(loaded.status());
  auto model = LoadModel(args, loaded->config);
  if (!model.ok()) return Fail(model.status());

  const auto& test = loaded->dataset.test_indices();
  const int index = args.GetInt("index", 0);
  if (index < 0 || index >= static_cast<int>(test.size())) {
    std::fprintf(stderr, "error: --index must be in [0, %zu)\n", test.size());
    return 1;
  }
  data::Batch batch =
      loaded->dataset.MakeBatch({test[static_cast<size_t>(index)]});
  tensor::Tensor pred =
      loaded->dataset.scaler().Inverse((*model)->Predict(batch));
  tensor::Tensor truth = loaded->dataset.scaler().Inverse(batch.target);

  const auto& flows = loaded->dataset.flows();
  std::printf("forecast for interval %lld (hour %.1f, weekday %d):\n",
              static_cast<long long>(batch.target_indices[0]),
              flows.HourOfDay(batch.target_indices[0]),
              flows.WeekdayOf(batch.target_indices[0]));
  for (int64_t h = 0; h < pred.dim(2); ++h) {
    for (int64_t w = 0; w < pred.dim(3); ++w) {
      std::printf("  region (%lld,%lld): out %.1f (truth %.1f)  in %.1f "
                  "(truth %.1f)\n",
                  static_cast<long long>(h), static_cast<long long>(w),
                  pred.at({0, 0, h, w}), truth.at({0, 0, h, w}),
                  pred.at({0, 1, h, w}), truth.at({0, 1, h, w}));
    }
  }
  return 0;
}

double Percentile(std::vector<double> sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const double rank = q * static_cast<double>(sorted_ms.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] * (1.0 - frac) + sorted_ms[hi] * frac;
}

/// `bench-infer`: single-process latency comparison of the planned engine
/// against the autograd Predict path at a fixed batch size, plus planned
/// throughput. Writes a JSON record when --out is given (consumed by
/// tools/run_inference_bench.sh into BENCH_inference.json).
int BenchInfer(const Args& args) {
  auto loaded = LoadForModel(args);
  if (!loaded.ok()) return Fail(loaded.status());
  auto model = LoadModel(args, loaded->config);
  if (!model.ok()) return Fail(model.status());

  infer::EngineOptions eopts;
  eopts.specialize = args.GetInt("specialize", 0) != 0;

  const int iters = std::max(1, args.GetInt("iters", 50));
  const int batch_size = std::max(1, args.GetInt("batch", 1));
  const auto& test = loaded->dataset.test_indices();
  if (test.empty()) {
    std::fprintf(stderr, "error: dataset has no test samples\n");
    return 1;
  }
  std::vector<int64_t> chunk;
  for (int b = 0; b < batch_size; ++b) {
    chunk.push_back(test[static_cast<size_t>(b) % test.size()]);
  }
  data::Batch batch = loaded->dataset.MakeBatch(chunk);

  // Autograd path: what Predict cost before the engine existed (graph nodes
  // built and dropped every call).
  std::vector<double> autograd_ms;
  (*model)->Predict(batch);  // Warm the pool.
  for (int i = 0; i < iters; ++i) {
    util::Stopwatch watch;
    (*model)->Predict(batch);
    autograd_ms.push_back(watch.ElapsedMillis());
  }

  // Planned engine, steady state (plan compiled once, zero-alloc replay).
  infer::Engine engine(**model);
  tensor::Tensor out = engine.Predict(batch);  // Warm: compiles the plan.
  std::vector<double> engine_ms;
  util::Stopwatch total;
  for (int i = 0; i < iters; ++i) {
    util::Stopwatch watch;
    const Status run = engine.PredictInto(batch, &out);
    if (!run.ok()) return Fail(run);
    engine_ms.push_back(watch.ElapsedMillis());
  }
  const double throughput =
      static_cast<double>(iters) * batch_size / total.ElapsedSeconds();

  const double a50 = Percentile(autograd_ms, 0.5);
  const double a99 = Percentile(autograd_ms, 0.99);
  const double e50 = Percentile(engine_ms, 0.5);
  const double e99 = Percentile(engine_ms, 0.99);
  const int threads = static_cast<int>(util::ActivePool().num_threads());
  std::printf(
      "batch=%d threads=%d iters=%d\n"
      "autograd Predict ms: p50 %.3f  p99 %.3f\n"
      "engine   Predict ms: p50 %.3f  p99 %.3f  (%.2fx)\n"
      "engine throughput: %.1f samples/s\n",
      batch_size, threads, iters, a50, a99, e50, e99, a50 / e50, throughput);

  // Optional specialized engine: same plan shapes, but BN folded into the
  // weights and the weights repacked at plan time. Timed against the
  // unspecialized engine above, and accuracy-checked on held-out test
  // batches (max element delta and per-engine MAE in real flow units).
  double s50 = 0.0, s99 = 0.0;
  double max_abs_delta = 0.0, mae_fp32 = 0.0, mae_spec = 0.0;
  bool spec_active = false;
  if (eopts.specialize) {
    infer::Engine spec_engine(**model, eopts);
    tensor::Tensor sout = spec_engine.Predict(batch);  // Warm + gate.
    spec_active = spec_engine.spec_active_for(batch_size);
    std::vector<double> spec_ms;
    for (int i = 0; i < iters; ++i) {
      util::Stopwatch watch;
      const Status run = spec_engine.PredictInto(batch, &sout);
      if (!run.ok()) return Fail(run);
      spec_ms.push_back(watch.ElapsedMillis());
    }
    s50 = Percentile(spec_ms, 0.5);
    s99 = Percentile(spec_ms, 0.99);

    // Accuracy sweep over held-out test batches (scaler-inverted units).
    const auto& scaler = loaded->dataset.scaler();
    constexpr int kAccuracyBatches = 8;
    double abs_fp32 = 0.0, abs_spec = 0.0;
    int64_t count = 0;
    for (int cb = 0; cb < kAccuracyBatches; ++cb) {
      std::vector<int64_t> idx;
      for (int b = 0; b < batch_size; ++b) {
        const size_t at = static_cast<size_t>(cb) * batch_size + b;
        idx.push_back(test[at % test.size()]);
      }
      data::Batch probe = loaded->dataset.MakeBatch(idx);
      tensor::Tensor ref = engine.Predict(probe);
      tensor::Tensor got = spec_engine.Predict(probe);
      for (int64_t i = 0; i < ref.num_elements(); ++i) {
        const double d = std::abs(static_cast<double>(got.flat(i)) -
                                  static_cast<double>(ref.flat(i)));
        if (d > max_abs_delta) max_abs_delta = d;
        abs_fp32 += std::abs(scaler.Inverse(ref.flat(i)) -
                             scaler.Inverse(probe.target.flat(i)));
        abs_spec += std::abs(scaler.Inverse(got.flat(i)) -
                             scaler.Inverse(probe.target.flat(i)));
      }
      count += ref.num_elements();
    }
    mae_fp32 = abs_fp32 / static_cast<double>(count);
    mae_spec = abs_spec / static_cast<double>(count);
    std::printf(
        "specialized Predict ms: p50 %.3f  p99 %.3f  (%.2fx vs engine)\n"
        "specialized accuracy: active=%d max_abs_delta %.6g  "
        "mae fp32 %.4f vs spec %.4f (delta %.4g)\n",
        s50, s99, e50 / s50,
        spec_active ? 1 : 0, max_abs_delta, mae_fp32, mae_spec,
        mae_spec - mae_fp32);
  }

  const std::string out_path = args.Get("out", "");
  if (!out_path.empty()) {
    char buf[1280];
    int len = std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"batch\": %d,\n"
        "  \"threads\": %d,\n"
        "  \"iters\": %d,\n"
        "  \"autograd_ms\": {\"p50\": %.6f, \"p99\": %.6f},\n"
        "  \"engine_ms\": {\"p50\": %.6f, \"p99\": %.6f},\n"
        "  \"speedup_p50\": %.3f,\n"
        "  \"engine_throughput_rps\": %.3f",
        batch_size, threads, iters, a50, a99, e50, e99, a50 / e50,
        throughput);
    if (eopts.specialize && len > 0 &&
        static_cast<size_t>(len) < sizeof(buf)) {
      len += std::snprintf(
          buf + len, sizeof(buf) - static_cast<size_t>(len),
          ",\n"
          "  \"specialized\": {\n"
          "    \"engine_ms\": {\"p50\": %.6f, \"p99\": %.6f},\n"
          "    \"speedup_vs_fp32_engine\": %.3f,\n"
          "    \"spec_active\": %s,\n"
          "    \"max_abs_delta\": %.6g,\n"
          "    \"mae_fp32\": %.6f,\n"
          "    \"mae_spec\": %.6f,\n"
          "    \"mae_delta\": %.6g\n"
          "  }",
          s50, s99, e50 / s50,
          spec_active ? "true" : "false", max_abs_delta, mae_fp32, mae_spec,
          mae_spec - mae_fp32);
    }
    if (len > 0 && static_cast<size_t>(len) < sizeof(buf)) {
      std::snprintf(buf + len, sizeof(buf) - static_cast<size_t>(len),
                    "\n}\n");
    }
    const Status wrote = util::AtomicWriteFile(out_path, buf);
    if (!wrote.ok()) return Fail(wrote);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

/// SIGINT flips this token; the pipeline scheduler and every training loop
/// poll it cooperatively, so one Ctrl-C stops the run at the next step
/// boundary with the cache in a resumable state.
std::atomic<bool> g_cancel{false};

extern "C" void HandleSigint(int) {
  g_cancel.store(true, std::memory_order_relaxed);
}

/// One `--models` entry per tenant: name=ckpt. Without --models, --ckpt X
/// serves as the single tenant default=X.
bool ParseModelSpecs(const Args& args, const muse::MuseNetConfig& config,
                     std::vector<serve::ModelSpec>* out) {
  if (!args.Has("models") && !args.Has("ckpt")) {
    std::fprintf(stderr, "error: serve needs --ckpt or --models\n");
    return false;
  }
  const std::string models =
      args.Get("models", "default=" + args.Get("ckpt", ""));
  for (const std::string& entry : StrSplit(models, ',')) {
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size()) {
      std::fprintf(stderr, "error: --models entries are name=ckpt; got '%s'\n",
                   entry.c_str());
      return false;
    }
    serve::ModelSpec spec;
    spec.name = entry.substr(0, eq);
    spec.path = entry.substr(eq + 1);
    spec.config = config;
    spec.engine.specialize = args.GetInt("specialize", 0) != 0;
    spec.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
    out->push_back(std::move(spec));
  }
  return true;
}

/// Greppable one-line roll-up of the serve.* counters, printed after drain
/// (CI reconciles these against the metrics snapshot and the load report).
void PrintServeSummary(size_t tenants) {
  std::printf(
      "serve summary: tenants=%zu requests=%lld admitted=%lld shed=%lld "
      "completed=%lld timed_out=%lld swapped=%lld shadow_rejected=%lld\n",
      tenants,
      static_cast<long long>(obs::GetCounter("serve.requests").Value()),
      static_cast<long long>(obs::GetCounter("serve.admitted").Value()),
      static_cast<long long>(obs::GetCounter("serve.shed").Value()),
      static_cast<long long>(obs::GetCounter("serve.completed").Value()),
      static_cast<long long>(obs::GetCounter("serve.timed_out").Value()),
      static_cast<long long>(obs::GetCounter("serve.swapped").Value()),
      static_cast<long long>(
          obs::GetCounter("serve.shadow_rejected").Value()));
}

void PrintLoadReport(const char* label, const serve::LoadGenReport& report) {
  std::printf(
      "%s: issued=%lld completed=%lld shed=%lld timed_out=%lld errored=%lld "
      "wall=%.2fs shed_rate=%.3f p50=%.3fms p99=%.3fms\n",
      label, static_cast<long long>(report.issued),
      static_cast<long long>(report.completed),
      static_cast<long long>(report.shed),
      static_cast<long long>(report.timed_out),
      static_cast<long long>(report.errored), report.wall_s,
      report.shed_rate(), report.p50_ms, report.p99_ms);
}

/// Built-in serving bench (tools/run_serving_bench.sh -> BENCH_serving.json):
/// calibrates the sustainable closed-loop rate, measures an uncontended
/// baseline, then drives flat --load-mults multiples of sustainable with
/// deadline-aware shedding and records p50/p99/shed-rate per multiple.
int RunServingBench(serve::ForecastService& service, const std::string& tenant,
                    const std::vector<data::Batch>& pool,
                    const sim::City& city, const Args& args) {
  const double calib_s = args.GetDouble("calib-s", 2.0);
  const double phase_s = args.GetDouble("phase-s", 3.0);

  // Saturation phase: a flat rate far beyond capacity with a closed-loop cap
  // measures what the service actually completes per second.
  serve::LoadGenOptions calib;
  calib.duration_s = calib_s;
  calib.peak_rps = 1e6;
  calib.flat = true;
  calib.deadline_ms = 0.0;
  calib.max_outstanding = std::max(16, 4 * service.options().max_batch);
  calib.cancel = &g_cancel;
  serve::LoadGenReport cal = RunLoadGen(service, tenant, pool, city, calib);
  const double sustainable =
      std::max(1.0, static_cast<double>(cal.completed) /
                        std::max(1e-6, cal.wall_s));
  std::printf("calibration: sustainable=%.1f req/s\n", sustainable);

  // Uncontended baseline: well under capacity, no deadline — the p99 the
  // overload runs are judged against.
  serve::LoadGenOptions unc = calib;
  unc.duration_s = phase_s;
  unc.peak_rps = std::max(1.0, 0.25 * sustainable);
  unc.deadline_ms = 0.0;
  serve::LoadGenReport base = RunLoadGen(service, tenant, pool, city, unc);
  PrintLoadReport("uncontended", base);

  // Overload deadline: explicit --deadline-ms wins; otherwise 4x the
  // uncontended p99, which keeps completed-request latency within the 5x
  // budget by construction (expired requests shed or time out instead).
  double deadline_ms = args.GetDouble("deadline-ms", 0.0);
  if (deadline_ms <= 0.0) {
    deadline_ms = std::max(2.0, 4.0 * base.p99_ms);
  }

  std::string runs_json;
  for (const std::string& mult_text :
       StrSplit(args.Get("load-mults", "1,4,8"), ',')) {
    const double mult = std::atof(mult_text.c_str());
    if (mult <= 0.0) continue;
    serve::LoadGenOptions opts = calib;
    opts.duration_s = phase_s;
    opts.peak_rps = mult * sustainable;
    opts.deadline_ms = deadline_ms;
    opts.max_outstanding = args.GetInt("max-outstanding", 512);
    serve::LoadGenReport r = RunLoadGen(service, tenant, pool, city, opts);
    char label[64];
    std::snprintf(label, sizeof(label), "load %.0fx", mult);
    PrintLoadReport(label, r);

    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s    {\"mult\": %.2f, \"rate_rps\": %.2f, \"issued\": %lld, "
        "\"completed\": %lld, \"shed\": %lld, \"timed_out\": %lld, "
        "\"errored\": %lld, \"shed_rate\": %.4f, \"p50_ms\": %.4f, "
        "\"p99_ms\": %.4f, \"p99_vs_uncontended\": %.3f}",
        runs_json.empty() ? "" : ",\n", mult, opts.peak_rps,
        static_cast<long long>(r.issued),
        static_cast<long long>(r.completed),
        static_cast<long long>(r.shed),
        static_cast<long long>(r.timed_out),
        static_cast<long long>(r.errored), r.shed_rate(), r.p50_ms, r.p99_ms,
        base.p99_ms > 0.0 ? r.p99_ms / base.p99_ms : 0.0);
    runs_json += buf;
    if (g_cancel.load(std::memory_order_relaxed)) break;
  }

  const std::string out_path = args.Get("bench-out", "");
  if (!out_path.empty()) {
    char head[512];
    std::snprintf(
        head, sizeof(head),
        "{\n"
        "  \"sustainable_rps\": %.2f,\n"
        "  \"deadline_ms\": %.3f,\n"
        "  \"max_batch\": %d,\n"
        "  \"max_queue\": %d,\n"
        "  \"shed_policy\": \"%s\",\n"
        "  \"uncontended\": {\"rate_rps\": %.2f, \"p50_ms\": %.4f, "
        "\"p99_ms\": %.4f},\n"
        "  \"runs\": [\n",
        sustainable, deadline_ms, service.options().max_batch,
        service.options().max_queue,
        service.options().shed_policy == serve::ShedPolicy::kDropOldest
            ? "oldest"
            : "reject",
        unc.peak_rps, base.p50_ms, base.p99_ms);
    char tail[512];
    std::snprintf(
        tail, sizeof(tail),
        "\n  ],\n"
        "  \"counters\": {\"requests\": %lld, \"admitted\": %lld, "
        "\"shed\": %lld, \"completed\": %lld, \"timed_out\": %lld, "
        "\"swapped\": %lld, \"shadow_rejected\": %lld}\n"
        "}\n",
        static_cast<long long>(obs::GetCounter("serve.requests").Value()),
        static_cast<long long>(obs::GetCounter("serve.admitted").Value()),
        static_cast<long long>(obs::GetCounter("serve.shed").Value()),
        static_cast<long long>(obs::GetCounter("serve.completed").Value()),
        static_cast<long long>(obs::GetCounter("serve.timed_out").Value()),
        static_cast<long long>(obs::GetCounter("serve.swapped").Value()),
        static_cast<long long>(
            obs::GetCounter("serve.shadow_rejected").Value()));
    const Status wrote =
        util::AtomicWriteFile(out_path, head + runs_json + tail);
    if (!wrote.ok()) return Fail(wrote);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

/// `serve`: registers every tenant (--models, or --ckpt as the single tenant
/// `default`) in a ModelRegistry (shadow-validated against held-out probes),
/// fronts it with a ForecastService (bounded queues, token buckets,
/// deadline-aware shedding), optionally watches containers for hot-swap, and
/// drives it with either a fixed request count, the diurnal load generator
/// (--loadgen), or the serving bench (--bench). SIGINT/SIGTERM drain
/// gracefully: stop issuing, run queues dry, flush telemetry, exit 0.
int Serve(const Args& args) {
  auto shed_policy = serve::ParseShedPolicy(args.Get("shed-policy", "reject"));
  if (!shed_policy.ok()) {
    std::fprintf(stderr, "error: --shed-policy: %s\n",
                 shed_policy.status().ToString().c_str());
    return 2;
  }
  auto loaded = LoadForModel(args);
  if (!loaded.ok()) return Fail(loaded.status());

  std::vector<serve::ModelSpec> specs;
  if (!ParseModelSpecs(args, loaded->config, &specs)) return 2;

  const std::string trace_out = args.Get("trace-out", "");
  const std::string metrics_out = args.Get("metrics-out", "");
  const std::string run_log_path = args.Get("run-log", "");
  if (!trace_out.empty()) obs::StartTracing();

  const auto& test = loaded->dataset.test_indices();
  if (test.empty()) {
    std::fprintf(stderr, "error: dataset has no test samples\n");
    return 1;
  }

  // Held-out probes: shadow validation replays the first few test batches on
  // every candidate plan; the request pool cycles through the rest.
  serve::RegistryOptions ropts;
  const int probes = std::max(1, args.GetInt("probes", 3));
  for (int p = 0; p < probes; ++p) {
    ropts.probes.push_back(
        loaded->dataset.MakeBatch({test[static_cast<size_t>(p) % test.size()]}));
  }

  serve::ModelRegistry registry(ropts);
  for (const serve::ModelSpec& spec : specs) {
    const Status status = registry.Load(spec);
    if (!status.ok()) return Fail(status);
    std::printf("loaded tenant %s v%lld from %s\n", spec.name.c_str(),
                static_cast<long long>(registry.version(spec.name)),
                spec.path.c_str());
  }

  serve::ServiceOptions sopts;
  sopts.max_batch = args.GetInt("max-batch", 8);
  sopts.max_wait_ms = args.GetDouble("max-wait-ms", 2.0);
  sopts.max_queue = args.GetInt("max-queue", 64);
  sopts.deadline_ms = args.GetDouble("deadline-ms", 0.0);
  sopts.shed_policy = *shed_policy;
  sopts.rate_rps = args.GetDouble("rate-rps", 0.0);
  sopts.burst = args.GetDouble("burst", 0.0);
  sopts.monitor_quality = args.GetInt("quality", 0) != 0;
  serve::ForecastService service(registry, sopts);

  // The exposition server is declared after the service so its handlers
  // (which read registry + service state) are unregistered — the server
  // thread joins — before either is destroyed.
  std::unique_ptr<obs::ExpoServer> obs_server;
  if (!StartObservability(args, &obs_server)) return 2;
  if (obs_server != nullptr) {
    serve::RegisterServeEndpoints(*obs_server, registry, &service);
  }

  std::unique_ptr<serve::SwapWatcher> watcher;
  if (args.GetInt("hot-swap-watch", 0) != 0) {
    watcher = std::make_unique<serve::SwapWatcher>(
        registry, args.GetDouble("watch-interval-ms", 200.0));
  }

  g_cancel.store(false, std::memory_order_relaxed);
  std::signal(SIGINT, HandleSigint);
  std::signal(SIGTERM, HandleSigint);

  std::vector<data::Batch> pool;
  const int pool_size =
      std::min<int>(args.GetInt("pool", 32),
                    static_cast<int>(test.size()) - probes > 0
                        ? static_cast<int>(test.size()) - probes
                        : static_cast<int>(test.size()));
  for (int i = 0; i < std::max(1, pool_size); ++i) {
    pool.push_back(loaded->dataset.MakeBatch(
        {test[static_cast<size_t>(probes + i) % test.size()]}));
  }

  const BenchScale scale = ResolveSimScale(args);
  const sim::DatasetId dataset = ParseDataset(args.Get("dataset", "taxi"));
  sim::City city(sim::MakeCityConfig(dataset, scale, scale.seed), scale.seed);

  int exit_code = 0;
  if (args.GetInt("bench", 0) != 0 || args.Has("bench-out")) {
    exit_code = RunServingBench(service, specs[0].name, pool, city, args);
  } else if (args.GetInt("loadgen", 0) != 0) {
    serve::LoadGenOptions lopts;
    lopts.duration_s = args.GetDouble("duration-s", 8.0);
    lopts.peak_rps = args.GetDouble("peak-rps", 32.0);
    lopts.sim_days = args.GetInt("sim-days", 1);
    lopts.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
    lopts.max_outstanding = args.GetInt("max-outstanding", 256);
    lopts.cancel = &g_cancel;
    serve::LoadGenReport report =
        RunLoadGen(service, specs[0].name, pool, city, lopts);
    PrintLoadReport("loadgen", report);
    if (!run_log_path.empty()) {
      auto log = obs::RunLog::Open(run_log_path, /*truncate=*/true);
      if (log.ok()) {
        (void)log->Append(obs::RunRecord("serve_loadgen")
                              .Int("issued", report.issued)
                              .Int("completed", report.completed)
                              .Int("shed", report.shed)
                              .Int("timed_out", report.timed_out)
                              .Double("wall_s", report.wall_s)
                              .Double("p50_ms", report.p50_ms)
                              .Double("p99_ms", report.p99_ms));
      }
    }
  } else {
    // Fixed request count, round-robin across tenants, closed loop.
    const int requests = args.GetInt("requests", 256);
    const int cap = std::max(8, 4 * sopts.max_batch);
    std::deque<std::future<tensor::Tensor>> outstanding;
    int64_t completed = 0, failed = 0;
    auto harvest = [&](std::future<tensor::Tensor> f) {
      try {
        f.get();
        ++completed;
      } catch (...) {
        ++failed;
      }
    };
    for (int i = 0; i < requests; ++i) {
      if (g_cancel.load(std::memory_order_relaxed)) break;
      while (static_cast<int>(outstanding.size()) >= cap) {
        harvest(std::move(outstanding.front()));
        outstanding.pop_front();
      }
      const serve::ModelSpec& spec =
          specs[static_cast<size_t>(i) % specs.size()];
      outstanding.push_back(service.Submit(
          spec.name, pool[static_cast<size_t>(i) % pool.size()]));
    }
    while (!outstanding.empty()) {
      harvest(std::move(outstanding.front()));
      outstanding.pop_front();
    }
    std::printf("served %lld requests across %zu tenants (%lld failed)\n",
                static_cast<long long>(completed), specs.size(),
                static_cast<long long>(failed));
    const obs::MetricsSnapshot snapshot = obs::Registry::Instance().Snapshot();
    const auto latency = snapshot.histograms.find("serve.latency_ms");
    if (latency != snapshot.histograms.end() && latency->second.total > 0) {
      std::printf("latency ms: p50 %.3f  p99 %.3f\n",
                  obs::HistogramPercentile(latency->second, 0.50),
                  obs::HistogramPercentile(latency->second, 0.99));
    }
  }

  // Graceful drain: stop the watcher, run every queue dry, then flush
  // telemetry. Reached on normal completion and on SIGINT/SIGTERM alike.
  if (watcher != nullptr) watcher->Stop();
  service.Drain();
  PrintServeSummary(specs.size());
  if (watcher != nullptr) {
    std::printf("watcher: swaps=%lld rejects=%lld\n",
                static_cast<long long>(watcher->swaps()),
                static_cast<long long>(watcher->rejects()));
  }

  if (!trace_out.empty()) {
    const Status wrote = obs::StopTracingAndWrite(trace_out);
    if (!wrote.ok()) return Fail(wrote);
    std::printf("wrote trace %s\n", trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    const Status wrote = obs::WriteMetricsSnapshot(metrics_out);
    if (!wrote.ok()) return Fail(wrote);
    std::printf("wrote metrics %s\n", metrics_out.c_str());
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::printf("serve drained cleanly\n");
  return exit_code;
}

/// `pipeline`: declares the full experiment DAG (simulate → dataset →
/// per-model train → eval → table) and runs it incrementally against the
/// content-addressed stage cache. Reruns hit; config edits rerun exactly
/// the affected stages (--explain prints why); Ctrl-C leaves a resumable
/// cache.
int RunPipeline(const Args& args) {
  bench::ExperimentContext ctx = bench::MakeContext("incremental pipeline");

  std::vector<sim::DatasetId> datasets;
  for (const std::string& name :
       StrSplit(args.Get("datasets", "bike,taxi,bj"), ',')) {
    datasets.push_back(ParseDataset(name));
  }
  std::vector<std::string> models = StrSplit(
      args.Get("models",
               "HistoricalAverage,RNN,Seq2Seq,CONVGCN,GMAN,ST-Norm,STGSP,"
               "DeepSTN+,ST-SSL,MUSE-Net"),
      ',');

  std::vector<bench::TrainOverride> overrides;
  if (args.Has("override")) {
    for (const std::string& text :
         StrSplit(args.Get("override", ""), ',')) {
      auto parsed = bench::ParseTrainOverride(text);
      if (!parsed.ok()) return Fail(parsed.status());
      overrides.push_back(std::move(parsed).value());
    }
  }

  const std::string bucket_name = args.Get("bucket", "all");
  eval::TimeBucket bucket = eval::TimeBucket::kAll;
  if (bucket_name == "peak") bucket = eval::TimeBucket::kPeak;
  else if (bucket_name == "nonpeak") bucket = eval::TimeBucket::kNonPeak;
  else if (bucket_name == "weekday") bucket = eval::TimeBucket::kWeekday;
  else if (bucket_name == "weekend") bucket = eval::TimeBucket::kWeekend;
  else if (bucket_name != "all") {
    std::fprintf(stderr, "error: unknown --bucket '%s'\n",
                 bucket_name.c_str());
    return 2;
  }

  pipeline::Pipeline graph;
  auto built = bench::BuildOneStepGraph(
      &graph, ctx, datasets, models,
      static_cast<int64_t>(args.GetInt("horizon", 0)), bucket, overrides);
  if (!built.ok()) return Fail(built.status());

  pipeline::Pipeline::RunOptions options;
  options.cache_dir = args.Get("cache-dir", bench::PipelineCacheDir(ctx));
  options.jobs = std::max(1, args.GetInt("jobs", 1));
  options.explain = args.GetInt("explain", 0) != 0;
  options.cancel = &g_cancel;
  std::signal(SIGINT, HandleSigint);

  auto run = graph.Run(options);
  std::signal(SIGINT, SIG_DFL);
  if (!run.ok()) {
    // 130 = interrupted by SIGINT; completed stages are cached, rerunning
    // the same command resumes.
    if (run.status().code() == StatusCode::kCancelled) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 130;
    }
    return Fail(run.status());
  }

  for (size_t d = 0; d < datasets.size(); ++d) {
    std::vector<const std::string*> metric_payloads;
    for (const int eval_stage : built->eval_stages[d]) {
      metric_payloads.push_back(&graph.payload(eval_stage));
    }
    auto table = bench::OneStepTableFromPayloads(models, metric_payloads);
    if (!table.ok()) return Fail(table.status());
    std::printf("--- %s ---\n%s\n", sim::DatasetName(datasets[d]).c_str(),
                table->ToString().c_str());
    const int table_stage = built->table_stages[d];
    bench::EmitCsv(ctx, graph.stage_name(table_stage).substr(6),
                   graph.payload(table_stage));
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: musenet <command> [--flag value ...]\n"
      "  simulate  --dataset bike|taxi|bj --out FILE [--days N] [--seed S]\n"
      "            [--grid-h H] [--grid-w W]\n"
      "  train     --flows FILE --ckpt FILE [--epochs N] [--patience P]\n"
      "            [--lr LR] [--d D] [--k K] [--seed S]\n"
      "            [--dataset bike|taxi|bj | --expect-flows-hash HEX]\n"
      "            (provenance check: fail fast on a stale flows file)\n"
      "            [--checkpoint-dir DIR] [--checkpoint-every N]\n"
      "            [--keep-last K] [--resume 0|1]\n"
      "            [--on-nonfinite abort|skip|rollback]\n"
      "            [--train-workers N] [--train-shards S] [--prefetch 0|1]\n"
      "            (data-parallel step: S fixes numerics, N only schedules;\n"
      "            results are bit-exact across N at fixed S)\n"
      "            [--trace-out FILE] [--metrics-out FILE]\n"
      "            [--run-log FILE] [--run-log-timings 0|1]\n"
      "  evaluate  --flows FILE --ckpt FILE [--d D] [--k K]\n"
      "  predict   --flows FILE --ckpt FILE --index I [--d D] [--k K]\n"
      "  serve     --flows FILE (--ckpt FILE | --models name=ckpt,...)\n"
      "            (--ckpt FILE alone serves the one tenant default=FILE)\n"
      "            [--requests N] [--max-batch B] [--max-wait-ms W]\n"
      "            [--d D] [--k K] [--specialize 0|1] [--probes N]\n"
      "            [--trace-out FILE] [--metrics-out FILE]\n"
      "            [--obs-port P]  (HTTP /metrics /healthz /statusz; 0 =\n"
      "            ephemeral, bound port is printed; /statusz?dump=1 dumps\n"
      "            the flight recorder)  [--postmortem FILE]  (flight-\n"
      "            recorder dump on fatal signal / shadow rejection)\n"
      "            [--hot-swap-watch 0|1] [--watch-interval-ms MS]\n"
      "            [--max-queue Q] [--deadline-ms MS]\n"
      "            [--shed-policy reject|oldest] [--rate-rps R] [--burst B]\n"
      "            [--quality 0|1]  (rolling MAE/bias + CUSUM drift gauges)\n"
      "            [--loadgen 0|1] [--duration-s S] [--peak-rps R]\n"
      "            [--sim-days N] [--run-log FILE]\n"
      "            [--bench 0|1] [--bench-out FILE] [--load-mults 1,4,8]\n"
      "            [--calib-s S] [--phase-s S] [--max-outstanding N]\n"
      "            SIGINT/SIGTERM drain queues, flush telemetry, exit 0.\n"
      "  bench-infer --flows FILE --ckpt FILE [--iters N] [--batch B]\n"
      "            [--specialize 0|1] [--d D] [--k K] [--out FILE]\n"
      "  pipeline  [--datasets bike,taxi,bj] [--models M1,M2,...]\n"
      "            [--cache-dir DIR] [--jobs N] [--explain 0|1]\n"
      "            [--horizon H] [--bucket all|peak|nonpeak|weekday|weekend]\n"
      "            [--override MODEL:key=value[,...]]  (keys: epochs, lr,\n"
      "            batch, patience; MODEL '*' matches all)\n"
      "            Incremental experiment DAG vs the content-hashed stage\n"
      "            cache; Ctrl-C leaves a resumable cache.\n");
  return 2;
}

}  // namespace
}  // namespace musenet

int main(int argc, char** argv) {
  using namespace musenet;
  if (argc < 2) return Usage();
  obs::AutoInitFromEnv();            // MUSENET_TRACE=<path>
  obs::AutoInitPostmortemFromEnv();  // MUSENET_POSTMORTEM=<path>
  const std::string command = argv[1];
  const Args args(argc, argv);
  if (command == "simulate") return Simulate(args);
  if (command == "train") return Train(args);
  if (command == "evaluate") return Evaluate(args);
  if (command == "predict") return Predict(args);
  if (command == "serve") return Serve(args);
  if (command == "bench-infer") return BenchInfer(args);
  if (command == "pipeline") return RunPipeline(args);
  return Usage();
}
