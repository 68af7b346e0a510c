// Train part: muse::MuseNet::TrainWithReport at the `musenet train` defaults
// (NYC-Taxi preset at its default 4x6 grid, d=12, k=32, batch 8, lr 1e-3,
// 320 training samples, per-epoch checkpoints) for a fixed epoch budget that
// runs past the convergence target, at a given shard count and the default
// worker count (one: the shards run one after another).
//
// The traced run drives the same step from public calls (as
// bench/bench_training_step.cc does) with the same data, seed, batch size and
// shard count, timing each layer from outside.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "autograd/variable.h"
#include "common.h"
#include "data/dataset.h"
#include "eval/training.h"
#include "muse/model.h"
#include "obs/run_log.h"
#include "optim/adam.h"
#include "optim/optimizer.h"
#include "parts.h"
#include "sim/presets.h"
#include "tensor/serialize.h"
#include "util/rng.h"
#include "util/shard_context.h"

namespace musebench {
namespace {

namespace ag = musenet::autograd;
namespace ts = musenet::tensor;
using musenet::data::Batch;
using musenet::data::TrafficDataset;

/// Convergence target: validation MSE at most this fraction of the first
/// epoch's. Reached by epoch 6-9 for the model seeds below at one and four
/// shards; the validation curves plateau near 0.3-0.4.
constexpr double kTargetFraction = 0.7;
constexpr double kClipNorm = 5.0;  // eval::TrainConfig default.
constexpr int kBatch = 8;          // eval::TrainConfig default.
constexpr double kLearningRate = 1e-3;  // `musenet train` default.
/// Epoch budget: past the target, which is reached by epoch 6-9.
constexpr int kEpochs = 10;
/// Set-ups (dataset build plus model init) per run; the median is reported.
constexpr int kSetupReps = 10;
/// The training inputs are fixed rather than drawn from the workload seed:
/// convergence depends so strongly on the simulated city and the model seed
/// (epochs to the target ranged from 4 to 12 over twelve cities, and on sim
/// seed 19 validation MSE never fell below its first epoch's) that a spread
/// across seeds would swamp any regression bound. The city is the `musenet
/// simulate` default; the two model seeds (initialisation, noise, shuffle
/// order) are averaged because epochs to the target still vary between them.
constexpr uint64_t kSimSeed = 7;
constexpr uint64_t kModelSeeds[] = {7, 8};

struct Setup {
  TrafficDataset dataset;
  musenet::muse::MuseNetConfig config;
};

musenet::muse::MuseNetConfig ConfigFor(const TrafficDataset& dataset) {
  musenet::muse::MuseNetConfig config;
  config.grid_h = dataset.grid_height();
  config.grid_w = dataset.grid_width();
  config.periodicity = dataset.options().spec;
  config.repr_dim = 12;
  config.dist_dim = 32;
  return config;
}

struct UntracedRun {
  double wall_s = 0.0;
  double samples_per_s = 0.0;
  double time_to_target_s = -1.0;
  double best_val = 0.0;
};

/// One TrainWithReport call. A watcher thread stamps each completed epoch
/// from the loop's own `train.epochs_run` counter; the per-epoch validation
/// MSE comes from the run log.
UntracedRun TrainOnce(const Setup& setup, uint64_t seed, int shards,
                      const std::string& dir, PartResult& result) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  musenet::eval::TrainConfig train;
  train.epochs = kEpochs;
  train.patience = 15;
  train.learning_rate = kLearningRate;
  train.seed = seed;
  train.checkpoint_dir = dir + "/ckpt";
  train.train_shards = shards;
  train.run_log_path = dir + "/run.jsonl";
  train.run_log_timings = false;

  musenet::muse::MuseNet model(setup.config, seed);
  musenet::obs::Counter& epochs_run =
      musenet::obs::GetCounter("train.epochs_run");
  std::vector<int64_t> epoch_end_ns;
  std::atomic<bool> stop{false};
  const int64_t base = epochs_run.Value();
  const int64_t t0 = NowNs();
  std::thread watcher([&] {
    int64_t seen = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const int64_t now = epochs_run.Value() - base;
      const int64_t stamp = NowNs();
      for (; seen < now; ++seen) epoch_end_ns.push_back(stamp);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  musenet::eval::TrainReport report;
  const musenet::Status status =
      model.TrainWithReport(setup.dataset, train, &report);
  const int64_t t1 = NowNs();
  stop.store(true, std::memory_order_release);
  watcher.join();

  UntracedRun run;
  run.wall_s = (t1 - t0) / 1e9;
  run.best_val = report.best_val;
  result.attempted += report.steps;
  result.failed += report.skipped_batches + report.rollbacks;
  result.Check(status.ok(), "TrainWithReport: " + status.ToString());
  result.Check(report.skipped_batches == 0 && report.rollbacks == 0,
               "training skipped batches or rolled back");
  result.Check(report.epochs_run == kEpochs, "training stopped early");
  run.samples_per_s =
      static_cast<double>(report.epochs_run) *
      static_cast<double>(setup.dataset.train_indices().size()) / run.wall_s;

  std::vector<double> val;
  auto records = musenet::obs::ReadRunLog(train.run_log_path);
  result.Check(records.ok(), "run log unreadable");
  if (records.ok()) {
    for (const auto& record : *records) {
      std::map<std::string, std::string> fields(record.begin(), record.end());
      if (fields["event"] == "epoch") {
        val.push_back(std::strtod(fields["val_mse"].c_str(), nullptr));
      }
    }
  }
  result.Check(static_cast<int>(val.size()) == report.epochs_run &&
                   static_cast<int>(epoch_end_ns.size()) == report.epochs_run,
               "epoch records do not match the epochs run");
  if (!val.empty()) {
    result.Check(*std::min_element(val.begin(), val.end()) == report.best_val,
                 "best validation MSE differs from the best epoch record");
    for (size_t e = 0; e < val.size() && e < epoch_end_ns.size(); ++e) {
      if (val[e] <= kTargetFraction * val[0]) {
        run.time_to_target_s = (epoch_end_ns[e] - t0) / 1e9;
        break;
      }
    }
  }
  if (run.time_to_target_s < 0.0) {
    // Not an output error: the run is charged its whole budget, as a failed
    // request is charged the whole phase.
    std::fprintf(stderr, "seed %llu: target not reached in %d epochs\n",
                 static_cast<unsigned long long>(seed), kEpochs);
    run.time_to_target_s = run.wall_s;
  }
  return run;
}

/// Near-equal contiguous shard sizes, larger shards first.
std::vector<size_t> ShardSizes(size_t total, int shards) {
  std::vector<size_t> sizes(static_cast<size_t>(shards), total / shards);
  for (size_t s = 0; s < total % shards; ++s) ++sizes[s];
  return sizes;
}

/// The training step driven from public calls, every layer call in a span.
/// Returns training samples per wall second over the whole loop (validation
/// and checkpoints included, as for TrainWithReport).
double TrainTraced(const Setup& setup, uint64_t seed, int shards,
                   const std::string& dir, SpanRecorder& spans,
                   PartResult& result) {
  std::filesystem::create_directories(dir);
  musenet::muse::MuseNet model(setup.config, seed);
  musenet::optim::Adam optimizer(model.Parameters(), kLearningRate);
  const std::vector<ag::Variable>& params = optimizer.params();
  std::vector<std::pair<std::string, musenet::Rng*>> named = model.NamedRngs();
  std::mt19937_64 shuffle_rng(seed);
  std::vector<int64_t> order = setup.dataset.train_indices();
  const TrafficDataset& dataset = setup.dataset;
  model.SetTraining(true);

  // The program's own counters, read around each step only, so validation
  // and checkpoints do not count.
  const char* kStepCounters[] = {"gemm.flops", "parallel_for.calls",
                                 "autograd.backward.nodes",
                                 "tensor.pool.reuses",
                                 "tensor.pool.fresh_allocs"};
  std::map<std::string, int64_t> counted;
  auto read_counters = [&](int sign) {
    for (const char* name : kStepCounters) {
      counted[name] += sign * musenet::obs::GetCounter(name).Value();
    }
  };
  int64_t steps = 0;
  const int64_t t0 = NowNs();
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), shuffle_rng);
    for (size_t begin = 0; begin < order.size(); begin += kBatch) {
      const size_t count = std::min<size_t>(kBatch, order.size() - begin);
      read_counters(-1);
      const int64_t step = spans.Begin("train.step", NowNs());
      const std::vector<size_t> sizes =
          ShardSizes(count, std::min<int>(shards, static_cast<int>(count)));
      const int n = static_cast<int>(sizes.size());
      std::vector<Batch> batches;
      {
        ScopedSpan span(spans, "data.batch", step);
        size_t offset = begin;
        for (size_t s : sizes) {
          batches.push_back(dataset.MakeBatchFromPool(order, offset, s));
          offset += s;
        }
      }
      auto forward_loss = [&](const Batch& batch) {
        musenet::muse::MuseNet::ForwardResult forward;
        {
          ScopedSpan span(spans, "muse.forward", step);
          forward = model.Forward(batch, /*stochastic=*/true);
        }
        ScopedSpan span(spans, "muse.loss", step);
        return model.ComputeLoss(forward, batch, nullptr);
      };
      model.ZeroGrad();
      float loss_sum = 0.0f;
      if (n == 1) {
        ScopedSpan section(spans, "train.shards", step);
        ScopedSpan shard(spans, "shard", step);
        const ag::Variable loss = forward_loss(batches[0]);
        ScopedSpan span(spans, "autograd.backward", step);
        ag::Backward(loss);
        loss_sum = loss.value().scalar();
        ag::ReleaseGraph(loss);
      } else {
        // Per-shard graphs, as the data-parallel step runs them: RNG streams
        // forked per shard, leaf gradients diverted into per-shard buffers,
        // deferred batch-norm updates replayed in shard order.
        std::vector<std::vector<musenet::Rng>> children(n);
        for (auto& [name, parent] : named) {
          for (int s = 0; s < n; ++s) {
            children[s].push_back(parent->Fork(static_cast<uint64_t>(s)));
          }
        }
        std::vector<musenet::optim::ShardGradients> grads(n);
        std::vector<std::vector<std::function<void()>>> deferred(n);
        std::vector<float> losses(n, 0.0f);
        auto run_shard = [&](int s) {
          ScopedSpan shard(spans, "shard", step);
          musenet::util::ShardContext context(s, n);
          for (size_t k = 0; k < named.size(); ++k) {
            context.MapRng(named[k].second, &children[s][k]);
          }
          musenet::util::ShardContext::Scope scope(&context);
          grads[s].grads.resize(params.size());
          grads[s].present.assign(params.size(), 0);
          ag::LeafGradSink sink;
          const ag::Variable loss = forward_loss(batches[s]);
          ScopedSpan span(spans, "autograd.backward", step);
          ag::BackwardWithSeed(
              loss, ts::Tensor::Full(loss.value().shape(),
                                     static_cast<float>(sizes[s]) /
                                         static_cast<float>(count)));
          losses[s] = loss.value().scalar();
          for (size_t i = 0; i < params.size(); ++i) {
            if (sink.Take(params[i].node().get(), &grads[s].grads[i])) {
              grads[s].present[i] = 1;
            }
          }
          deferred[s] = std::move(context.deferred());
          ag::ReleaseGraph(loss);
        };
        {
          ScopedSpan section(spans, "train.shards", step);
          for (int s = 0; s < n; ++s) run_shard(s);
        }
        for (auto& shard : deferred) {
          for (auto& update : shard) update();
        }
        ScopedSpan span(spans, "optim.reduce", step);
        musenet::optim::ReduceShardGradients(params, &grads);
        for (float l : losses) loss_sum += l;
      }
      result.Check(std::isfinite(loss_sum), "traced step loss is not finite");
      {
        ScopedSpan span(spans, "optim.clip", step);
        musenet::optim::ClipGradNorm(params, kClipNorm);
      }
      {
        ScopedSpan span(spans, "optim.adam", step);
        optimizer.Step();
      }
      spans.End(step, NowNs());
      read_counters(+1);
      ++steps;
    }
    {
      ScopedSpan span(spans, "eval.validate");
      result.Check(std::isfinite(musenet::eval::ValidationMse(model, dataset,
                                                              kBatch)),
                   "traced validation MSE is not finite");
    }
    ScopedSpan span(spans, "tensor.ckpt_save");
    std::map<std::string, ts::Tensor> state = model.StateDict();
    for (auto& [name, tensor] : optimizer.StateTensors()) {
      state.emplace("optim/" + name, std::move(tensor));
    }
    const musenet::Status saved =
        ts::SaveTensors(dir + "/traced.muse", state);
    result.Check(saved.ok(), "traced checkpoint: " + saved.ToString());
  }
  const double wall_s = (NowNs() - t0) / 1e9;
  model.SetTraining(false);

  // Per-step layer times: medians over steps of each layer's per-step total
  // (summed over shards). The step's parts are batch assembly, the shard
  // section, reduce, clip and Adam; what they leave over is unattributed.
  std::map<std::string, std::vector<double>> per_step;
  std::vector<double> shard_max, shard_mean, unattributed;
  {
    std::map<int64_t, std::map<std::string, std::vector<double>>> by_step;
    std::map<int64_t, double> step_ms;
    spans.ForEach([&](int64_t index, const Span& s) {
      const double ms = (s.end_ns - s.start_ns) / 1e6;
      if (s.name == "train.step") step_ms[index] = ms;
      if (s.parent >= 0) by_step[s.parent][s.name].push_back(ms);
    });
    for (auto& [step, layers] : by_step) {
      double attributed = 0.0;
      for (const auto& [name, ms] : layers) {
        double total = 0.0;
        for (double v : ms) total += v;
        per_step[name].push_back(total);
        if (name == "data.batch" || name == "train.shards" ||
            name == "optim.reduce" || name == "optim.clip" ||
            name == "optim.adam") {
          attributed += total;
        }
      }
      const std::vector<double>& shard = layers["shard"];
      shard_max.push_back(*std::max_element(shard.begin(), shard.end()));
      shard_mean.push_back(per_step["shard"].back() /
                           static_cast<double>(shard.size()));
      unattributed.push_back(step_ms[step] - attributed);
    }
  }
  auto& m = result.metrics;
  m["data.batch_ms"] = Median(per_step["data.batch"]);
  m["muse.forward_ms"] = Median(per_step["muse.forward"]);
  m["muse.loss_ms"] = Median(per_step["muse.loss"]);
  m["autograd.backward_ms"] = Median(per_step["autograd.backward"]);
  m["optim.clip_ms"] = Median(per_step["optim.clip"]);
  m["optim.adam_ms"] = Median(per_step["optim.adam"]);
  m["optim.reduce_ms"] =
      per_step["optim.reduce"].empty() ? 0.0 : Median(per_step["optim.reduce"]);
  m["shard.max_ms"] = Median(shard_max);
  m["shard.mean_ms"] = Median(shard_mean);
  m["train.unattributed_ms"] = Median(unattributed);
  m["eval.validate_ms"] = Median(spans.DurationsMs("eval.validate"));
  m["tensor.ckpt_save_ms"] = Median(spans.DurationsMs("tensor.ckpt_save"));
  const double s = static_cast<double>(std::max<int64_t>(1, steps));
  m["autograd.nodes_per_step"] = counted["autograd.backward.nodes"] / s;
  m["util.parallel_for_per_step"] = counted["parallel_for.calls"] / s;
  double compute_ms = 0.0;
  for (const char* name : {"muse.forward", "muse.loss", "autograd.backward"}) {
    for (double v : per_step[name]) compute_ms += v;
  }
  m["tensor.gemm_gflops"] =
      compute_ms > 0.0 ? counted["gemm.flops"] / (compute_ms * 1e6) : 0.0;
  const double reuses = static_cast<double>(counted["tensor.pool.reuses"]);
  const double fresh = static_cast<double>(counted["tensor.pool.fresh_allocs"]);
  m["tensor.pool_reuse_ratio"] =
      reuses + fresh > 0.0 ? reuses / (reuses + fresh) : 0.0;
  return static_cast<double>(kEpochs) *
         static_cast<double>(order.size()) / wall_s;
}

}  // namespace

int RunTrain(const Flags& flags) {
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string dir = flags.Get("dir", ".");
  const int shards = static_cast<int>(flags.GetInt("shards", 1));
  std::filesystem::create_directories(dir);
  PartResult result;

  // Input generation (not timed). The part ignores the workload seed: see
  // kSimSeed and kModelSeeds.
  musenet::BenchScale scale = musenet::ResolveBenchScale();
  scale.seed = kSimSeed;
  const musenet::sim::FlowSeries flows = musenet::sim::GenerateDatasetFlows(
      musenet::sim::DatasetId::kNycTaxi, scale, scale.seed);

  // Setup: dataset build (interception, split, scaler) plus model init.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    musenet::data::DatasetOptions options;
    options.max_train_samples = 320;  // `musenet train` default.
    musenet::sim::FlowSeries input = flows;
    const int64_t t0 = NowNs();
    auto built = std::make_unique<Setup>(
        Setup{TrafficDataset(std::move(input), options), {}});
    built->config = ConfigFor(built->dataset);
    musenet::muse::MuseNet init(built->config, kModelSeeds[0]);
    setup_s.push_back((NowNs() - t0) / 1e9);
    setup = std::move(built);
  }
  result.metrics["setup_s"] = Median(setup_s);

  // One training per round; the traced run trains the first seed untraced,
  // then drives the traced loop on the same seed.
  std::vector<double> sps;
  double ttt_sum = 0.0, best_sum = 0.0;
  const size_t runs = trace ? 1 : std::size(kModelSeeds);
  SpanRecorder spans(trace);
  SignalReady();
  size_t round = 0;
  for (; WaitForRound(); ++round) {
    if (round < runs) {
      const UntracedRun run =
          TrainOnce(*setup, kModelSeeds[round], shards,
                    dir + "/train-" + std::to_string(round), result);
      std::fprintf(stderr,
                   "model seed %llu: %.1f samples/s, target at %.2f s, "
                   "best val MSE %.6g\n",
                   static_cast<unsigned long long>(kModelSeeds[round]),
                   run.samples_per_s, run.time_to_target_s, run.best_val);
      sps.push_back(run.samples_per_s);
      ttt_sum += run.time_to_target_s;
      best_sum += run.best_val;
    } else if (trace && round == runs) {
      const double traced =
          TrainTraced(*setup, kModelSeeds[0], shards, dir + "/traced",
                      spans, result);
      result.metrics["train.trace_overhead_sps"] = traced - Median(sps);
      spans.WriteJson(dir + "/train-spans.json");
    }
    SignalRoundDone();
  }
  result.Check(round >= runs + (trace ? 1 : 0),
               "train part ran too few rounds");
  if (!trace && !sps.empty()) {
    result.metrics["samples_per_s"] = Median(sps);
    result.metrics["time_to_target_s"] = ttt_sum / static_cast<double>(runs);
    result.metrics["best_val_mse"] = best_sum / static_cast<double>(runs);
  }
  result.metrics["peak_rss_mb"] = PeakRssMb();
  result.Print();
  return result.correct ? 0 : 1;
}

}  // namespace musebench
