// Command-line front end to the MUSE-Net library: `simulate` writes a
// FlowSeries container; `train` fits MUSE-Net on it and writes a checkpoint;
// `evaluate` reports test metrics; `predict` prints one frame's forecast next
// to the ground truth; `serve` runs the multi-tenant hot-swap serving stack;
// `bench-infer` times the graph-free engine against the autograd Predict
// path; `pipeline` runs the experiment DAG against its stage cache. Model
// hyper-parameters at train and load time must match (the checkpoint loader
// validates shapes).
//
// Every flag is one row of Flags(): its value kind, default, verbs and help.
// `musenet` without arguments prints the table. main parses the command line
// against the verb's rows before the verb runs; a bad flag exits 2.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
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

/// Verbs that load a flows file and build a MUSE-Net of --d and --k.
constexpr const char* kModelVerbs = "train evaluate predict serve bench-infer";
/// Verbs that resolve the simulation scale (ResolveSimScale).
constexpr const char* kSimVerbs =
    "simulate train evaluate predict serve bench-infer";

/// True when the space-separated `verbs` include `verb`.
bool Takes(const std::string& verbs, const std::string& verb) {
  return (" " + verbs + " ").find(" " + verb + " ") != std::string::npos;
}

/// How a flag's value parses: a number (int, double, 0|1 or a hex digest),
/// any string, one name of the row's list, or a comma list of such names.
enum Kind { kInt, kDouble, kBool, kHex, kString, kName, kNames };

/// One row of the flag table.
struct Flag {
  const char* name;
  Kind kind;
  const char* fallback;  ///< Default text; nullptr when absence means off.
  const char* verbs;     ///< The verbs that take the flag, space-separated.
  double min;            ///< Smallest accepted number.
  const char* help;
  /// kName/kNames: the accepted names. A name's value is its position, so a
  /// list that names an enum's values follows the enum's order.
  std::vector<std::string> names = {};
};

/// Every flag of every verb, declared once; Usage() prints the table.
const std::vector<Flag>& Flags() {
  static const std::vector<Flag> flags = {
      {"dataset", kName, "taxi", kSimVerbs, 0,
       "simulator preset (sim::DatasetId); given to a model verb, the flows "
       "file must carry its hash; serve: the load's city",
       {"bike", "taxi", "bj"}},
      {"seed", kInt, "7", kSimVerbs, 0, "simulation, init and train seed"},
      {"days", kInt, "0", kSimVerbs, 0, "days; 0 = MUSE_BENCH_SCALE's"},
      {"grid-h", kInt, "0", kSimVerbs, 0, "grid height; 0 = the preset's"},
      {"grid-w", kInt, "0", kSimVerbs, 0, "grid width; 0 = the preset's"},
      {"out", kString, "flows.bin", "simulate", 0, "flows file to write"},
      {"out", kString, nullptr, "bench-infer", 0, "JSON record to write"},
      {"flows", kString, "flows.bin", kModelVerbs, 0, "flows file"},
      {"expect-flows-hash", kHex, nullptr, kModelVerbs, 1,
       "the sim config hash the flows file must carry"},
      {"ckpt", kString, "model.ckpt", kModelVerbs, 0, "checkpoint"},
      {"d", kInt, "12", kModelVerbs, 0, "MUSE-Net channels d (>= 1)"},
      {"k", kInt, "32", kModelVerbs, 0, "MUSE-Net distribution k (>= 4)"},
      {"epochs", kInt, "60", "train", 1, "training epochs"},
      {"patience", kInt, "15", "train", 0, "early stopping; 0 = off"},
      {"lr", kDouble, "1e-3", "train", 0, "Adam learning rate"},
      {"verbose", kBool, "1", "train", 0, "per-epoch loss lines"},
      {"checkpoint-dir", kString, nullptr, "train", 0, "crash-safe ckpts"},
      {"checkpoint-every", kInt, "1", "train", 1, "epochs per checkpoint"},
      {"keep-last", kInt, "3", "train", 1, "checkpoints kept"},
      {"resume", kBool, "0", "train", 0, "resume from --checkpoint-dir"},
      {"on-nonfinite", kName, "abort", "train", 0, "eval::FailurePolicy",
       {"abort", "skip", "rollback"}},
      {"train-workers", kInt, "1", "train", 1, "threads over the shards"},
      {"train-shards", kInt, "0", "train", 0,
       "shards per batch, which fix the numerics; 0 = --train-workers"},
      {"prefetch", kBool, "0", "train", 0, "build the next batch early"},
      {"run-log", kString, nullptr, "train serve", 0, "JSONL telemetry"},
      {"run-log-timings", kBool, "1", "train", 0, "run log wall times"},
      {"trace-out", kString, nullptr, "train serve", 0, "Perfetto trace"},
      {"metrics-out", kString, nullptr, "train serve", 0, "metrics JSON"},
      {"index", kInt, "0", "predict", 0, "test sample to forecast"},
      {"specialize", kBool, "0", "serve bench-infer", 0, "fold the weights"},
      {"iters", kInt, "50", "bench-infer", 1, "timed runs per path"},
      {"batch", kInt, "1", "bench-infer", 1, "batch size"},
      {"models", kString, nullptr, "serve", 0,
       "tenants name=ckpt,...; absent: --ckpt is the tenant default"},
      {"requests", kInt, "256", "serve", 0, "requests (without --loadgen)"},
      {"max-batch", kInt, "8", "serve", 0, "largest batch of queued requests"},
      {"max-queue", kInt, "64", "serve", 0, "queued requests per tenant"},
      {"deadline-ms", kDouble, "0", "serve", 0, "request deadline; 0 = none"},
      {"shed-policy", kName, "reject", "serve", 0, "serve::ShedPolicy",
       {"reject", "oldest"}},
      {"rate-rps", kDouble, "0", "serve", 0, "token bucket; 0 = unlimited"},
      {"burst", kDouble, "0", "serve", 0, "bucket size; 0 = max(1, rate)"},
      {"quality", kBool, "0", "serve", 0, "MAE/bias and drift gauges"},
      {"probes", kInt, "3", "serve", 1, "shadow-validation batches"},
      {"hot-swap-watch", kBool, "0", "serve", 0, "swap changed checkpoints"},
      {"watch-interval-ms", kDouble, "200", "serve", 1, "poll interval"},
      {"obs-port", kInt, nullptr, "serve", 0, "HTTP /metrics /healthz "
       "/statusz on 127.0.0.1; 0 = any free port, printed"},
      {"postmortem", kString, nullptr, "serve", 0,
       "flight-recorder dump on a fatal signal or shadow rejection"},
      {"loadgen", kBool, "0", "serve", 0, "diurnal load, not --requests"},
      {"duration-s", kDouble, "8", "serve", 0.1, "load generator run"},
      {"peak-rps", kDouble, "32", "serve", 0, "arrival rate at peak"},
      {"sim-days", kInt, "1", "serve", 1, "simulated days per run"},
      {"max-outstanding", kInt, "256", "serve", 1, "in-flight request cap"},
      {"datasets", kNames, "bike,taxi,bj", "pipeline", 0, "tables",
       {"bike", "taxi", "bj"}},
      {"models", kNames,
       "HistoricalAverage,RNN,Seq2Seq,CONVGCN,GMAN,ST-Norm,STGSP,DeepSTN+,"
       "ST-SSL,MUSE-Net",
       "pipeline", 0, "table rows", bench::ModelNames()},
      {"override", kString, nullptr, "pipeline", 0, "MODEL:key=value,... "
       "(keys epochs, lr, batch, patience; * = all)"},
      {"horizon", kInt, "0", "pipeline", 0, "forecast horizon offset"},
      {"bucket", kName, "all", "pipeline", 0, "time bucket (eval::TimeBucket)",
       {"all", "peak", "nonpeak", "weekday", "weekend"}},
      {"cache-dir", kString, nullptr, "pipeline", 0,
       "stage cache; absent: <results>/cache/pipeline"},
      {"jobs", kInt, "1", "pipeline", 1, "concurrent stages"},
      {"explain", kBool, "0", "pipeline", 0, "say why each stage ran"},
  };
  return flags;
}

/// A flag's value: a number, 0|1 or a name's position in `number`, a hex
/// digest in `hex`, a comma list's positions in `list`.
struct Value {
  bool given = false;
  std::string text;
  double number = 0.0;
  uint64_t hex = 0;
  std::vector<int> list;
};

/// Parses `text` as `flag`'s kind into `value`; InvalidArgument naming the
/// flag when the text is malformed, out of range or an unknown name.
Status ParseValue(const Flag& flag, const std::string& text, Value* value) {
  const auto bad = [&flag](const std::string& why, const std::string& got) {
    return Status::InvalidArgument(std::string("--") + flag.name + ": " +
                                   why + ", got '" + got + "'");
  };
  value->text = text;
  char* end = nullptr;
  switch (flag.kind) {
    case kString:
      return Status::OK();
    case kBool:
      if (text != "0" && text != "1") return bad("expected 0 or 1", text);
      value->number = text == "1" ? 1.0 : 0.0;
      return Status::OK();
    case kInt:
    case kDouble:
      value->number = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || !std::isfinite(value->number)) {
        return bad("expected a number", text);
      }
      if (flag.kind == kInt &&
          (value->number != std::trunc(value->number) ||
           std::fabs(value->number) > std::numeric_limits<int>::max())) {
        return bad("expected an integer", text);
      }
      break;
    case kHex: {
      const size_t at = StartsWith(text, "0x") ? 2 : 0;
      if (text.size() == at || text.size() - at > 16 ||
          text.find_first_not_of("0123456789abcdefABCDEF", at) !=
              std::string::npos) {
        return bad("expected a hex digest", text);
      }
      value->hex = std::strtoull(text.c_str() + at, nullptr, 16);
      value->number = static_cast<double>(value->hex);
      break;
    }
    case kName:
    case kNames:
      for (const std::string& part : flag.kind == kNames
                                         ? StrSplit(text, ',')
                                         : std::vector<std::string>{text}) {
        const auto named =
            std::find(flag.names.begin(), flag.names.end(), part);
        if (named == flag.names.end()) {
          return bad("expected one of " + StrJoin(flag.names, ", "), part);
        }
        value->list.push_back(static_cast<int>(named - flag.names.begin()));
      }
      value->number = value->list[0];
      return Status::OK();
  }
  if (value->number >= flag.min) return Status::OK();
  char min[32];
  std::snprintf(min, sizeof(min), "%g", flag.min);
  return bad(std::string("must be >= ") + min, text);
}

/// One verb's flag values: every row that names the verb, parsed from the
/// command line or from its default.
struct Args {
  std::map<std::string, Value> values;

  const Value& At(const char* name) const {
    const auto it = values.find(name);
    MUSE_CHECK(it != values.end()) << "no --" << name << " row for this verb";
    return it->second;
  }
  /// True when the command line gave the flag.
  bool Has(const char* name) const { return At(name).given; }
  int Int(const char* name) const { return static_cast<int>(At(name).number); }
  double Double(const char* name) const { return At(name).number; }
  bool Bool(const char* name) const { return At(name).number != 0.0; }
  uint64_t Hex(const char* name) const { return At(name).hex; }
  const std::string& Str(const char* name) const { return At(name).text; }
  template <typename E>
  E Enum(const char* name) const {
    return static_cast<E>(At(name).number);
  }
};

/// Parses argv[2..] as --flag value pairs against the rows of verb argv[1].
/// InvalidArgument naming the token for a stray token, an unknown flag or
/// one the verb does not take, a flag given twice, a missing value, or a
/// value its row rejects.
Result<Args> ParseArgs(int argc, char** argv) {
  const std::string verb = argv[1];
  Args args;
  for (const Flag& flag : Flags()) {
    if (!Takes(flag.verbs, verb)) continue;
    Value& value = args.values[flag.name];
    if (flag.fallback == nullptr) continue;
    const Status parsed = ParseValue(flag, flag.fallback, &value);
    MUSE_CHECK(parsed.ok()) << parsed.ToString();
  }
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    const auto named = [&token](const Flag& flag) {
      return token == std::string("--") + flag.name;
    };
    const auto row =
        std::find_if(Flags().begin(), Flags().end(), [&](const Flag& flag) {
          return named(flag) && Takes(flag.verbs, verb);
        });
    if (row == Flags().end()) {
      const std::string why =
          !StartsWith(token, "--")
              ? "unexpected argument; flags take the form --name value"
          : std::any_of(Flags().begin(), Flags().end(), named)
              ? "not a flag of " + verb
              : "unknown flag";
      return Status::InvalidArgument(token + ": " + why);
    }
    Value& value = args.values[row->name];
    if (value.given) return Status::InvalidArgument(token + ": given twice");
    if (i + 1 == argc || StartsWith(argv[i + 1], "--")) {
      return Status::InvalidArgument(token + ": missing value");
    }
    value = Value{};
    MUSE_RETURN_IF_ERROR(ParseValue(*row, argv[++i], &value));
    value.given = true;
  }
  return args;
}

int Usage() {
  std::fprintf(stderr,
               "usage: musenet <verb> [--flag value ...]\n"
               "verbs: simulate train evaluate predict serve bench-infer "
               "pipeline\nA flag its verb does not take, a missing or "
               "malformed value or an unknown name exits 2.\n");
  static const char* const kValues[] = {"N", "X", "0|1", "HEX", "TEXT"};
  for (const Flag& flag : Flags()) {
    std::fprintf(stderr, "  --%s %s%s  [%s]%s%s\n      %s\n", flag.name,
                 flag.kind < kName ? kValues[flag.kind]
                                   : StrJoin(flag.names, "|").c_str(),
                 flag.kind == kNames ? "[,...]" : "", flag.verbs,
                 flag.fallback != nullptr ? " default " : "",
                 flag.fallback != nullptr ? flag.fallback : "", flag.help);
  }
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Exits 2 for a value a library validator rejects. Its message starts with
/// the field's name, which is the flag's with '_' for '-' (max_batch is
/// --max-batch), except repr_dim and dist_dim, which are --d and --k.
int FieldError(const Status& invalid) {
  std::string flag = invalid.message().substr(0, invalid.message().find(' '));
  if (flag == "repr_dim") flag = "d";
  if (flag == "dist_dim") flag = "k";
  std::replace(flag.begin(), flag.end(), '_', '-');
  std::fprintf(stderr, "error: --%s: %s\n", flag.c_str(),
               invalid.message().c_str());
  return 2;
}

/// Arms the flight-recorder post-mortem when --postmortem names a path and
/// starts the exposition server when --obs-port is given, printing the bound
/// port for scrapers. False, with a message, when the server cannot bind.
bool StartObservability(const Args& args,
                        std::unique_ptr<obs::ExpoServer>* server) {
  if (args.Has("postmortem")) {
    obs::SetPostmortemPath(args.Str("postmortem"));
    obs::InstallCrashHandler();
  }
  if (!args.Has("obs-port")) return true;
  auto started = obs::ExpoServer::Start(args.Int("obs-port"));
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

/// Writes the --trace-out trace and the --metrics-out snapshot, when given.
Status WriteTelemetry(const Args& args) {
  const std::string& trace_out = args.Str("trace-out");
  if (!trace_out.empty()) {
    MUSE_RETURN_IF_ERROR(obs::StopTracingAndWrite(trace_out));
    std::printf("wrote trace %s\n", trace_out.c_str());
  }
  const std::string& metrics_out = args.Str("metrics-out");
  if (!metrics_out.empty()) {
    MUSE_RETURN_IF_ERROR(obs::WriteMetricsSnapshot(metrics_out));
    std::printf("wrote metrics %s\n", metrics_out.c_str());
  }
  return Status::OK();
}

/// Resolves the simulation scale the way `simulate` does, so that --dataset
/// on a model verb recomputes the provenance hash `simulate` stamped: the
/// bench scale from the environment with --seed/--days/--grid-h/--grid-w.
BenchScale ResolveSimScale(const Args& args) {
  BenchScale scale = ResolveBenchScale();
  scale.seed = static_cast<uint64_t>(args.Int("seed"));
  if (args.Int("days") > 0) scale.days = args.Int("days");
  if (args.Int("grid-h") > 0) scale.grid_h = args.Int("grid-h");
  if (args.Int("grid-w") > 0) scale.grid_w = args.Int("grid-w");
  return scale;
}

int Simulate(const Args& args) {
  const BenchScale scale = ResolveSimScale(args);
  const sim::DatasetId id = args.Enum<sim::DatasetId>("dataset");
  const std::string& out = args.Str("out");

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

/// The provenance hash `flows.bin` must carry, or 0 for no check:
/// --expect-flows-hash takes an explicit hex digest; --dataset recomputes
/// SimConfigHash from the same flag resolution `simulate` used.
uint64_t ExpectedFlowsHash(const Args& args) {
  if (args.Has("expect-flows-hash")) return args.Hex("expect-flows-hash");
  if (!args.Has("dataset")) return 0;
  const BenchScale scale = ResolveSimScale(args);
  return sim::SimConfigHash(args.Enum<sim::DatasetId>("dataset"), scale,
                            scale.seed);
}

/// --d and --k as a MuseNetConfig; Load sets the grid.
muse::MuseNetConfig ModelConfig(const Args& args) {
  muse::MuseNetConfig config;
  config.repr_dim = args.Int("d");
  config.dist_dim = args.Int("k");
  return config;
}

struct Loaded {
  data::TrafficDataset dataset;
  muse::MuseNetConfig config;
  std::unique_ptr<muse::MuseNet> model;  ///< The --ckpt weights, if asked.
};

/// Loads --flows, and with `trained` the --ckpt weights in eval mode.
Result<Loaded> Load(const Args& args, bool trained) {
  MUSE_ASSIGN_OR_RETURN(
      sim::FlowSeries flows,
      sim::LoadFlowSeriesChecked(args.Str("flows"), ExpectedFlowsHash(args)));
  data::DatasetOptions options;
  options.max_train_samples = 320;
  MUSE_RETURN_IF_ERROR(data::ValidateSeriesLength(flows, options));
  Loaded loaded{data::TrafficDataset(std::move(flows), options),
                ModelConfig(args), nullptr};
  loaded.config.grid_h = loaded.dataset.grid_height();
  loaded.config.grid_w = loaded.dataset.grid_width();
  if (!trained) return loaded;
  loaded.model = std::make_unique<muse::MuseNet>(
      loaded.config, static_cast<uint64_t>(args.Int("seed")));
  MUSE_ASSIGN_OR_RETURN(auto state, tensor::LoadTensors(args.Str("ckpt")));
  MUSE_RETURN_IF_ERROR(loaded.model->LoadStateDict(state));
  loaded.model->SetTraining(false);
  return loaded;
}

int Train(const Args& args) {
  auto loaded = Load(args, /*trained=*/false);
  if (!loaded.ok()) return Fail(loaded.status());
  muse::MuseNet model(loaded->config, static_cast<uint64_t>(args.Int("seed")));

  // See eval/train_loop.h for the fault policy and DESIGN.md "Data-parallel
  // training" and "Observability" for the rest.
  eval::TrainConfig train;
  train.epochs = args.Int("epochs");
  train.patience = args.Int("patience");
  train.learning_rate = args.Double("lr");
  train.seed = static_cast<uint64_t>(args.Int("seed"));
  train.verbose = args.Bool("verbose");
  train.checkpoint_dir = args.Str("checkpoint-dir");
  train.checkpoint_every = args.Int("checkpoint-every");
  train.keep_last = args.Int("keep-last");
  train.resume = args.Bool("resume");
  train.on_non_finite = args.Enum<eval::FailurePolicy>("on-nonfinite");
  train.train_workers = args.Int("train-workers");
  train.train_shards = args.Int("train-shards");
  train.prefetch = args.Bool("prefetch");
  train.run_log_path = args.Str("run-log");
  train.run_log_timings = args.Bool("run-log-timings");
  if (!args.Str("trace-out").empty()) obs::StartTracing();

  eval::TrainReport report;
  const Status trained = model.TrainWithReport(loaded->dataset, train,
                                               &report);
  if (Status wrote = WriteTelemetry(args); !wrote.ok()) return Fail(wrote);
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

  const std::string& ckpt = args.Str("ckpt");
  const Status status = tensor::SaveTensors(ckpt, model.StateDict());
  if (!status.ok()) return Fail(status);
  std::printf("wrote %s (%lld parameters)\n", ckpt.c_str(),
              static_cast<long long>(model.NumParameters()));
  return 0;
}

int Evaluate(const Args& args) {
  auto loaded = Load(args, /*trained=*/true);
  if (!loaded.ok()) return Fail(loaded.status());

  eval::FlowMetrics m =
      eval::EvaluateOnTest(*loaded->model, loaded->dataset, 8);
  std::printf("test outflow: RMSE %.2f  MAE %.2f  MAPE %s\n", m.outflow.rmse,
              m.outflow.mae, FormatPercent(m.outflow.mape).c_str());
  std::printf("test inflow:  RMSE %.2f  MAE %.2f  MAPE %s\n", m.inflow.rmse,
              m.inflow.mae, FormatPercent(m.inflow.mape).c_str());
  return 0;
}

int Predict(const Args& args) {
  auto loaded = Load(args, /*trained=*/true);
  if (!loaded.ok()) return Fail(loaded.status());

  const auto& test = loaded->dataset.test_indices();
  const int index = args.Int("index");
  if (index >= static_cast<int>(test.size())) {
    std::fprintf(stderr, "error: --index must be in [0, %zu)\n", test.size());
    return 1;
  }
  data::Batch batch =
      loaded->dataset.MakeBatch({test[static_cast<size_t>(index)]});
  tensor::Tensor pred =
      loaded->dataset.scaler().Inverse(loaded->model->Predict(batch));
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
  auto loaded = Load(args, /*trained=*/true);
  if (!loaded.ok()) return Fail(loaded.status());
  muse::MuseNet& model = *loaded->model;

  infer::EngineOptions eopts;
  eopts.specialize = args.Bool("specialize");

  const int iters = args.Int("iters");
  const int batch_size = args.Int("batch");
  const auto& test = loaded->dataset.test_indices();
  std::vector<int64_t> chunk;
  for (int b = 0; b < batch_size; ++b) {
    chunk.push_back(test[static_cast<size_t>(b) % test.size()]);
  }
  data::Batch batch = loaded->dataset.MakeBatch(chunk);

  // Autograd path: what Predict cost before the engine existed (graph nodes
  // built and dropped every call).
  std::vector<double> autograd_ms;
  model.Predict(batch);  // Warm the pool.
  for (int i = 0; i < iters; ++i) {
    util::Stopwatch watch;
    model.Predict(batch);
    autograd_ms.push_back(watch.ElapsedMillis());
  }

  // Planned engine, steady state (plan compiled once, zero-alloc replay).
  infer::Engine engine(model);
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
    infer::Engine spec_engine(model, eopts);
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

  const std::string& out_path = args.Str("out");
  if (!out_path.empty()) {
    char spec[512] = "";
    if (eopts.specialize) {
      std::snprintf(
          spec, sizeof(spec),
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
          s50, s99, e50 / s50, spec_active ? "true" : "false", max_abs_delta,
          mae_fp32, mae_spec, mae_spec - mae_fp32);
    }
    char buf[1280];
    std::snprintf(buf, sizeof(buf),
                  "{\n"
                  "  \"batch\": %d,\n"
                  "  \"threads\": %d,\n"
                  "  \"iters\": %d,\n"
                  "  \"autograd_ms\": {\"p50\": %.6f, \"p99\": %.6f},\n"
                  "  \"engine_ms\": {\"p50\": %.6f, \"p99\": %.6f},\n"
                  "  \"speedup_p50\": %.3f,\n"
                  "  \"engine_throughput_rps\": %.3f%s\n"
                  "}\n",
                  batch_size, threads, iters, a50, a99, e50, e99, a50 / e50,
                  throughput, spec);
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
/// serves as the single tenant default=X. The caller sets each config.
bool ParseModelSpecs(const Args& args, std::vector<serve::ModelSpec>* out) {
  if (!args.Has("models") && !args.Has("ckpt")) {
    std::fprintf(stderr, "error: serve needs --ckpt or --models\n");
    return false;
  }
  const std::string models =
      args.Has("models") ? args.Str("models") : "default=" + args.Str("ckpt");
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
    spec.engine.specialize = args.Bool("specialize");
    spec.seed = static_cast<uint64_t>(args.Int("seed"));
    out->push_back(std::move(spec));
  }
  return true;
}

/// Greppable one-line roll-up of the serve.* counters, printed after drain
/// (CI reconciles these against the metrics snapshot and the load report).
void PrintServeSummary(size_t tenants) {
  std::printf("serve summary: tenants=%zu", tenants);
  for (const char* counter : {"requests", "admitted", "shed", "completed",
                              "timed_out", "swapped", "shadow_rejected"}) {
    std::printf(" %s=%lld", counter,
                static_cast<long long>(
                    obs::GetCounter(std::string("serve.") + counter).Value()));
  }
  std::printf("\n");
}

serve::ServiceOptions ServiceOptionsFrom(const Args& args) {
  serve::ServiceOptions sopts;
  sopts.max_batch = args.Int("max-batch");
  sopts.max_queue = args.Int("max-queue");
  sopts.deadline_ms = args.Double("deadline-ms");
  sopts.shed_policy = args.Enum<serve::ShedPolicy>("shed-policy");
  sopts.rate_rps = args.Double("rate-rps");
  sopts.burst = args.Double("burst");
  sopts.monitor_quality = args.Bool("quality");
  return sopts;
}

/// `serve`: registers every tenant (--models, or --ckpt as the single tenant
/// `default`) in a ModelRegistry (shadow-validated against held-out probes),
/// fronts it with a ForecastService (bounded queues, token buckets,
/// deadline-aware shedding), optionally watches containers for hot-swap, and
/// drives it with either a fixed request count or the diurnal load generator
/// (--loadgen). SIGINT/SIGTERM drain gracefully: stop issuing, run queues
/// dry, flush telemetry, exit 0.
int Serve(const Args& args) {
  const serve::ServiceOptions sopts = ServiceOptionsFrom(args);
  std::vector<serve::ModelSpec> specs;
  if (!ParseModelSpecs(args, &specs)) return 2;
  auto loaded = Load(args, /*trained=*/false);
  if (!loaded.ok()) return Fail(loaded.status());
  for (serve::ModelSpec& spec : specs) spec.config = loaded->config;

  if (!args.Str("trace-out").empty()) obs::StartTracing();

  const auto& test = loaded->dataset.test_indices();

  // Held-out probes: shadow validation replays the first few test batches on
  // every candidate plan; the request pool cycles through the rest.
  serve::RegistryOptions ropts;
  const int probes = args.Int("probes");
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
  if (args.Bool("hot-swap-watch")) {
    watcher = std::make_unique<serve::SwapWatcher>(
        registry, args.Double("watch-interval-ms"));
  }

  g_cancel.store(false, std::memory_order_relaxed);
  std::signal(SIGINT, HandleSigint);
  std::signal(SIGTERM, HandleSigint);

  // The request pool cycles through up to 32 test samples after the probes.
  std::vector<data::Batch> pool;
  const int rest = static_cast<int>(test.size()) - probes;
  const int pool_size =
      std::min<int>(32, rest > 0 ? rest : static_cast<int>(test.size()));
  for (int i = 0; i < std::max(1, pool_size); ++i) {
    pool.push_back(loaded->dataset.MakeBatch(
        {test[static_cast<size_t>(probes + i) % test.size()]}));
  }

  const BenchScale scale = ResolveSimScale(args);
  const sim::DatasetId dataset = args.Enum<sim::DatasetId>("dataset");
  sim::City city(sim::MakeCityConfig(dataset, scale, scale.seed), scale.seed);

  if (args.Bool("loadgen")) {
    serve::LoadGenOptions lopts;
    lopts.duration_s = args.Double("duration-s");
    lopts.peak_rps = args.Double("peak-rps");
    lopts.sim_days = args.Int("sim-days");
    lopts.seed = static_cast<uint64_t>(args.Int("seed"));
    lopts.max_outstanding = args.Int("max-outstanding");
    lopts.cancel = &g_cancel;
    serve::LoadGenReport report =
        RunLoadGen(service, specs[0].name, pool, city, lopts);
    std::printf(
        "loadgen: issued=%lld completed=%lld shed=%lld timed_out=%lld "
        "errored=%lld wall=%.2fs shed_rate=%.3f p50=%.3fms p99=%.3fms\n",
        static_cast<long long>(report.issued),
        static_cast<long long>(report.completed),
        static_cast<long long>(report.shed),
        static_cast<long long>(report.timed_out),
        static_cast<long long>(report.errored), report.wall_s,
        report.shed_rate(), report.p50_ms, report.p99_ms);
    if (!args.Str("run-log").empty()) {
      auto log = obs::RunLog::Open(args.Str("run-log"), /*truncate=*/true);
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
    const int requests = args.Int("requests");
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

  if (Status wrote = WriteTelemetry(args); !wrote.ok()) return Fail(wrote);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::printf("serve drained cleanly\n");
  return 0;
}

/// `pipeline`: declares the full experiment DAG (simulate → dataset →
/// per-model train → eval → table) and runs it incrementally against the
/// content-addressed stage cache. Reruns hit; config edits rerun exactly
/// the affected stages (--explain prints why); Ctrl-C leaves a resumable
/// cache.
int RunPipeline(const Args& args) {
  std::vector<bench::TrainOverride> overrides;
  if (args.Has("override")) {
    for (const std::string& text : StrSplit(args.Str("override"), ',')) {
      auto parsed = bench::ParseTrainOverride(text);
      if (!parsed.ok()) {
        std::fprintf(stderr, "error: --override: %s\n",
                     parsed.status().message().c_str());
        return 2;
      }
      overrides.push_back(std::move(parsed).value());
    }
  }
  std::vector<sim::DatasetId> datasets;
  for (const int id : args.At("datasets").list) {
    datasets.push_back(static_cast<sim::DatasetId>(id));
  }
  const std::vector<std::string> models = StrSplit(args.Str("models"), ',');

  bench::ExperimentContext ctx = bench::MakeContext("incremental pipeline");
  pipeline::Pipeline graph;
  auto built = bench::BuildOneStepGraph(
      &graph, ctx, datasets, models, args.Int("horizon"),
      args.Enum<eval::TimeBucket>("bucket"), overrides);
  if (!built.ok()) return Fail(built.status());

  pipeline::Pipeline::RunOptions options;
  options.cache_dir = args.Has("cache-dir") ? args.Str("cache-dir")
                                            : bench::PipelineCacheDir(ctx);
  options.jobs = args.Int("jobs");
  options.explain = args.Bool("explain");
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

}  // namespace
}  // namespace musenet

int main(int argc, char** argv) {
  using namespace musenet;
  const std::pair<const char*, int (*)(const Args&)> kVerbs[] = {
      {"simulate", Simulate}, {"train", Train},
      {"evaluate", Evaluate}, {"predict", Predict},
      {"serve", Serve},       {"bench-infer", BenchInfer},
      {"pipeline", RunPipeline}};
  const std::string verb = argc < 2 ? "" : argv[1];
  const auto run = std::find_if(std::begin(kVerbs), std::end(kVerbs),
                                [&](const auto& v) { return verb == v.first; });
  if (run == std::end(kVerbs)) return Usage();
  const Result<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().message().c_str());
    return 2;
  }
  // Values a library validator rejects are usage errors too, caught before
  // the verb loads anything.
  Status valid = Takes(kModelVerbs, verb)
                     ? muse::ValidateMuseNetConfig(ModelConfig(*args))
                     : Status::OK();
  if (valid.ok() && verb == "serve") {
    valid = serve::ValidateServiceOptions(ServiceOptionsFrom(*args));
  }
  if (!valid.ok()) return FieldError(valid);

  obs::AutoInitFromEnv();            // MUSENET_TRACE=<path>
  obs::AutoInitPostmortemFromEnv();  // MUSENET_POSTMORTEM=<path>
  return run->second(*args);
}
