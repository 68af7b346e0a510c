// Serve part: one MUSE-Net tenant behind serve::ModelRegistry +
// serve::ForecastService at default options, driven by an open-loop Poisson
// generator at fixed absolute rates (light, then saturation). The traced run
// adds a heavy phase and a rate search for the highest sustainable rate.
//
// Latency is timed from each request's scheduled send time to the moment the
// completion thread sees its result, so a stall also charges the requests
// queued behind it. The generator sleeps until just before each due time
// and then spins (see WaitUntil); the completion thread blocks on each
// future in turn.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <random>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "data/dataset.h"
#include "muse/model.h"
#include "parts.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "sim/presets.h"
#include "tensor/serialize.h"

namespace musebench {
namespace {

namespace ts = musenet::tensor;
using musenet::data::Batch;

constexpr char kTenant[] = "taxi";
/// Engine parity tolerance of tests/infer_test.cc (planned vs reference).
constexpr float kParityTolerance = 1e-6f;
/// Sustainable-rate limits: p99 at most this, under 1% failed, no growing
/// backlog (the ROADMAP's "sheds < 1%" definition).
constexpr double kSloP99Ms = 50.0;
constexpr double kMaxFailedFrac = 0.01;
/// ServiceOptions defaults. Warm-up covers every batch size up to max_batch;
/// a backlog of half the queue at the last arrival counts as growing.
constexpr int kMaxBatch = 8;
constexpr int kMaxQueue = 64;
constexpr int kInputPool = 64;
constexpr int kSetupReps = 10;
/// Fixed absolute arrival rates (requests/s), never derived from a
/// calibration run: a faster commit must not be offered more load.
/// Saturation is about twice the single-thread service throughput.
constexpr double kLightRps = 150;
constexpr double kHeavyRps = 300;
constexpr double kSaturateRps = 3000;
/// Bisection steps of the traced run's sustainable-rate search.
constexpr int kProbes = 6;

struct Arrival {
  int64_t offset_ns = 0;  ///< Due time relative to the phase start.
  int input = 0;          ///< Index into the request-input pool.
};

/// Poisson arrivals at `rate_rps` for `seconds`, from the workload seed.
/// std::mt19937_64 with an explicit inverse-CDF draw, so the schedule does
/// not depend on library code a change under test might alter.
std::vector<Arrival> PoissonSchedule(uint64_t seed, uint64_t stream,
                                     double rate_rps, double seconds) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    // Uniform in (0, 1) from the top 53 bits.
    const double u = (static_cast<double>(rng() >> 11) + 0.5) / 0x1p53;
    t += -std::log(u) / rate_rps;
    if (t >= seconds) break;
    out.push_back(Arrival{static_cast<int64_t>(t * 1e9),
                          static_cast<int>(rng() % kInputPool)});
  }
  return out;
}

/// Requests of one or more open-loop phases at one rate.
struct PhaseResult {
  std::vector<double> latency_ms;  ///< Due time to result; failed = missed.
  std::vector<double> late_ms;     ///< Generator lateness per request.
  std::vector<double> submit_us;   ///< ForecastService::Submit call.
  std::vector<double> wait_ms;     ///< Submit return to result ready.
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatched = 0;
  int64_t backlog_end = 0;  ///< Outstanding requests at the last arrival.
  double batch_sum = 0.0;   ///< serve.batch_size histogram delta: sum ...
  int64_t batches = 0;      ///< ... and count.
  double span_s = 0.0;      ///< Phase start to the last completion.

  double P(double q) const { return Quantile(latency_ms, q); }
  double MeanBatch() const {
    return batches > 0 ? batch_sum / static_cast<double>(batches) : 0.0;
  }
  double CompletedPerS() const {
    return static_cast<double>(attempted - failed) / span_s;
  }
  bool Sustainable() const {
    return attempted > 0 &&
           static_cast<double>(failed) <
               kMaxFailedFrac * static_cast<double>(attempted) &&
           P(0.99) <= kSloP99Ms && backlog_end <= kMaxQueue / 2;
  }
  /// Folds in another phase at the same rate (a later round).
  void Merge(const PhaseResult& o) {
    for (auto [to, from] : {std::pair{&latency_ms, &o.latency_ms},
                            std::pair{&late_ms, &o.late_ms},
                            std::pair{&submit_us, &o.submit_us},
                            std::pair{&wait_ms, &o.wait_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    attempted += o.attempted;
    failed += o.failed;
    mismatched += o.mismatched;
    batch_sum += o.batch_sum;
    batches += o.batches;
    span_s += o.span_s;
  }
};

struct Slot {
  std::future<ts::Tensor> future;
  int64_t due_ns = 0;
  int64_t submit_start_ns = 0;
  int64_t submit_end_ns = 0;
  int input = 0;
};

float MaxAbsDiff(const ts::Tensor& a, const ts::Tensor& b) {
  if (a.num_elements() != b.num_elements()) return INFINITY;
  float worst = 0.0f;
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    worst = std::max(worst, std::fabs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

/// Runs one open-loop phase: a generator thread submits on schedule, a
/// completion thread resolves futures in submission order (the service
/// completes a tenant's requests FIFO) and checks every response against
/// its reference prediction.
PhaseResult RunPhase(musenet::serve::ForecastService& service,
                     const std::vector<Batch>& inputs,
                     const std::vector<ts::Tensor>& refs,
                     const std::vector<Arrival>& schedule, int64_t rid_base,
                     SpanRecorder& spans) {
  const size_t n = schedule.size();
  std::vector<Slot> slots(n);
  std::counting_semaphore<> published(0);
  std::atomic<int64_t> completed{0};
  std::vector<char> ok(n, 0);
  std::vector<char> mismatch(n, 0);
  std::vector<int64_t> done_ns(n, 0);
  RegistryDelta delta;
  int64_t backlog_end = 0;
  const int64_t start_ns = NowNs() + 2'000'000;  // Both threads running.

  std::thread completer([&] {
    for (size_t i = 0; i < n; ++i) {
      published.acquire();
      Slot& slot = slots[i];
      slot.future.wait();
      done_ns[i] = NowNs();
      try {
        const ts::Tensor got = slot.future.get();
        ok[i] = 1;
        mismatch[i] = MaxAbsDiff(got, refs[slot.input]) > kParityTolerance;
      } catch (const std::exception&) {
        ok[i] = 0;  // Shed, timed out or errored.
      }
      completed.store(static_cast<int64_t>(i) + 1, std::memory_order_release);
    }
  });

  std::thread generator([&] {
    Batch next = inputs[schedule.empty() ? 0 : schedule[0].input];
    for (size_t i = 0; i < n; ++i) {
      Slot& slot = slots[i];
      slot.input = schedule[i].input;
      slot.due_ns = start_ns + schedule[i].offset_ns;
      WaitUntil(slot.due_ns);
      slot.submit_start_ns = NowNs();
      slot.future = service.Submit(kTenant, std::move(next));
      slot.submit_end_ns = NowNs();
      published.release();
      // Copy the next request's input off the clock.
      if (i + 1 < n) next = inputs[schedule[i + 1].input];
    }
    backlog_end = static_cast<int64_t>(n) -
                  completed.load(std::memory_order_acquire);
  });
  generator.join();
  completer.join();
  delta.Stop();

  PhaseResult r;
  r.attempted = static_cast<int64_t>(n);
  r.backlog_end = backlog_end;
  r.batches = delta.HistogramCount("serve.batch_size");
  r.batch_sum = delta.HistogramSum("serve.batch_size");
  // A failed request misses every limit: it is charged the whole phase.
  const double missed_ms =
      (schedule.empty() ? 0.0 : schedule.back().offset_ns / 1e6) + 1e3;
  int64_t last_done_ns = start_ns;
  for (size_t i = 0; i < n; ++i) {
    const Slot& s = slots[i];
    last_done_ns = std::max(last_done_ns, done_ns[i]);
    r.late_ms.push_back((s.submit_start_ns - s.due_ns) / 1e6);
    r.submit_us.push_back((s.submit_end_ns - s.submit_start_ns) / 1e3);
    if (ok[i]) {
      r.latency_ms.push_back((done_ns[i] - s.due_ns) / 1e6);
      r.wait_ms.push_back((done_ns[i] - s.submit_end_ns) / 1e6);
      r.mismatched += mismatch[i];
    } else {
      r.latency_ms.push_back(missed_ms);
      ++r.failed;
    }
    if (spans.enabled()) {
      const int64_t rid = rid_base + static_cast<int64_t>(i);
      const int64_t root =
          spans.Add("serve.request", s.due_ns, done_ns[i], -1, rid);
      spans.Add("loadgen.late", s.due_ns, s.submit_start_ns, root, rid);
      spans.Add("serve.submit", s.submit_start_ns, s.submit_end_ns, root, rid);
      spans.Add("serve.wait", s.submit_end_ns, done_ns[i], root, rid);
    }
  }
  r.span_s = (last_done_ns - start_ns) / 1e9;
  return r;
}

/// Median wall time of `iters` PredictInto replays at `batch`'s size on the
/// tenant's active plan. Called only while no request is in flight: the
/// dispatcher replays on the same plan instance.
double ReplayMs(musenet::infer::Engine& engine, const Batch& batch,
                int iters) {
  ts::Tensor out = engine.Predict(batch);  // Warm plan + output shape.
  std::vector<double> ms;
  for (int i = 0; i < iters; ++i) {
    const int64_t t0 = NowNs();
    const musenet::Status status = engine.PredictInto(batch, &out);
    ms.push_back((NowNs() - t0) / 1e6);
    if (!status.ok()) return NAN;
  }
  return Median(ms);
}

}  // namespace

int RunServe(const Flags& flags) {
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string dir = flags.Get("dir", ".");
  // Per-round phase lengths, as shares of the workload's --seconds.
  const double seconds = flags.GetDouble("seconds", 50);
  const double light_s = 0.036 * seconds;
  const double heavy_s = 0.02 * seconds;
  const double saturate_s = 0.024 * seconds;
  const double probe_s = 0.03 * seconds;
  std::filesystem::create_directories(dir);
  SpanRecorder spans(trace);
  PartResult result;

  // Inputs: the NYC-Taxi preset simulated at the paper's 10x20 grid, and a
  // freshly initialised model (serving cost does not depend on the weights).
  musenet::BenchScale scale = musenet::ResolveBenchScale();
  scale.grid_h = 10;
  scale.grid_w = 20;
  scale.seed = seed;
  musenet::data::DatasetOptions options;
  options.max_train_samples = 320;
  musenet::data::TrafficDataset dataset(
      musenet::sim::GenerateDatasetFlows(musenet::sim::DatasetId::kNycTaxi,
                                         scale, seed),
      options);
  musenet::muse::MuseNetConfig config;
  config.grid_h = dataset.grid_height();
  config.grid_w = dataset.grid_width();
  config.periodicity = dataset.options().spec;
  config.repr_dim = 12;
  config.dist_dim = 32;
  const std::string ckpt = dir + "/serve-model.muse";
  {
    musenet::muse::MuseNet model(config, seed);
    const musenet::Status saved = ts::SaveTensors(ckpt, model.StateDict());
    result.Check(saved.ok(), "save serving checkpoint: " + saved.ToString());
  }
  const std::vector<int64_t>& pool = dataset.test_indices();
  std::vector<Batch> inputs;
  for (int i = 0; i < kInputPool; ++i) {
    const size_t begin = static_cast<size_t>(i) * 3 % pool.size();
    inputs.push_back(dataset.MakeBatchFromPool(pool, begin, 1));
  }
  std::vector<Batch> warm;  // Batches of size 1..max_batch.
  for (int b = 1; b <= kMaxBatch; ++b) {
    warm.push_back(dataset.MakeBatchFromPool(pool, 0, static_cast<size_t>(b)));
  }

  // Setup: registry load (parse, build, plan) plus plan warm-up for every
  // batch size the dispatcher can form.
  musenet::serve::ModelSpec spec;
  spec.name = kTenant;
  spec.path = ckpt;
  spec.config = config;
  spec.seed = seed;
  std::vector<double> setup_s;
  auto set_up = [&](musenet::serve::ModelRegistry& registry) {
    const int64_t t0 = NowNs();
    const musenet::Status loaded = registry.Load(spec);
    if (loaded.ok()) {
      auto plan = registry.Acquire(kTenant);
      for (const Batch& b : warm) (void)plan->engine->Predict(b);
    }
    setup_s.push_back((NowNs() - t0) / 1e9);
    result.Check(loaded.ok(), "registry load: " + loaded.ToString());
    return loaded.ok();
  };
  musenet::serve::ModelRegistry registry;
  if (!set_up(registry)) {
    result.Print();
    return 1;
  }

  // Reference predictions through the same plan, before any timing.
  std::vector<ts::Tensor> refs;
  {
    auto plan = registry.Acquire(kTenant);
    for (const Batch& b : inputs) refs.push_back(plan->engine->Predict(b));
    if (trace) {
      result.metrics["infer.replay_ms.b1"] =
          ReplayMs(*plan->engine, warm[0], 400);
      result.metrics["infer.replay_ms.b8"] =
          ReplayMs(*plan->engine, warm[kMaxBatch - 1], 200);
    }
  }

  musenet::serve::ForecastService service(registry);
  RegistryDelta counters;
  int64_t rid = 0;
  auto run = [&](double rps, double seconds, uint64_t stream,
                 SpanRecorder& rec) {
    const auto schedule = PoissonSchedule(seed, stream, rps, seconds);
    PhaseResult r = RunPhase(service, inputs, refs, schedule, rid, rec);
    rid += static_cast<int64_t>(schedule.size());
    result.Check(r.mismatched == 0,
                 std::to_string(r.mismatched) +
                     " responses differ from the reference prediction");
    return r;
  };
  // Rounds (see WaitForRound) spread the phases over the whole workload
  // run, so a minute-long slow spell of the host weighs on every phase
  // alike instead of deciding one of them.
  SpanRecorder untraced(false);
  PhaseResult light, heavy, plain;
  std::vector<double> saturated_rps;  // Per round: a slow spell hits one.
  auto& m = result.metrics;
  SignalReady();
  int round = 0;
  for (; WaitForRound(); ++round) {
    const uint64_t stream = 10 * static_cast<uint64_t>(round);
    // Re-warm caches and wake-up paths after the other parts ran.
    (void)run(kHeavyRps, 0.3, stream, untraced);
    if (!trace) {
      light.Merge(run(kLightRps, light_s, stream + 1, spans));
      // Offered far above capacity, the bounded queue sheds the excess and
      // the dispatcher runs full batches back to back: completions per
      // second is the service's throughput ceiling.
      saturated_rps.push_back(
          run(kSaturateRps, saturate_s, stream + 3, untraced).CompletedPerS());
    } else if (round == 0) {
      light.Merge(run(kLightRps, 3 * light_s, stream + 1, spans));
      heavy.Merge(run(kHeavyRps, 3 * heavy_s, stream + 2, spans));
    } else if (round == 1) {
      // Tracing overhead: the same light phase with the recorder off.
      plain.Merge(run(kLightRps, 3 * light_s, 1, untraced));
    } else if (round == 2) {
      // Rate search for the highest sustainable rate: bisect between a
      // passing and a failing rate, starting from the heavy rate. Its p99
      // limit makes it follow the host's stalls, so it is a diagnostic.
      double lo = heavy.Sustainable() ? kHeavyRps : 0.0;
      double hi = heavy.Sustainable() ? 0.0 : kHeavyRps;
      for (int i = 0; i < kProbes; ++i) {
        const double rate = hi == 0.0 ? 2.0 * lo : 0.5 * (lo + hi);
        const PhaseResult probe =
            run(rate, probe_s, stream + 4 + static_cast<uint64_t>(i),
                untraced);
        (probe.Sustainable() ? lo : hi) = rate;
      }
      m["sustainable_rps"] = lo;
    }
    SignalRoundDone();
  }
  result.Check(round >= (trace ? 3 : 1), "serve part ran too few rounds");
  result.attempted += light.attempted + heavy.attempted;
  result.failed += light.failed + heavy.failed;
  m["light.p50_ms"] = light.P(0.5);
  if (!trace) {
    m["saturation_rps"] = Median(saturated_rps);
  } else {
    std::vector<double> submit = light.submit_us;
    submit.insert(submit.end(), heavy.submit_us.begin(), heavy.submit_us.end());
    std::vector<double> late = light.late_ms;
    late.insert(late.end(), heavy.late_ms.begin(), heavy.late_ms.end());
    // The heavy phase amplifies the host's slow spells through queueing
    // (its median moved 30% between two of them), so it is a diagnostic.
    m["heavy.p50_ms"] = heavy.P(0.5);
    m["light.p99_ms"] = light.P(0.99);
    m["heavy.p99_ms"] = heavy.P(0.99);
    m["loadgen.late_ms"] = Quantile(late, 0.99);
    m["serve.submit_us"] = Median(submit);
    m["serve.wait_ms.light"] = Median(light.wait_ms);
    m["serve.wait_ms.heavy"] = Median(heavy.wait_ms);
    m["serve.self_ms.light"] =
        Median(light.wait_ms) - m["infer.replay_ms.b1"];
    m["serve.batch_size.light"] = light.MeanBatch();
    m["serve.batch_size.heavy"] = heavy.MeanBatch();
    m["serve.failed.light"] = static_cast<double>(light.failed);
    m["serve.failed.heavy"] = static_cast<double>(heavy.failed);
    m["serve.trace_overhead_ms"] = light.P(0.5) - plain.P(0.5);
  }
  service.Drain();
  counters.Stop();

  // The service's own counters must account for every request.
  const int64_t requests = counters.Counter("serve.requests");
  const int64_t admitted = counters.Counter("serve.admitted");
  const int64_t shed = counters.Counter("serve.shed");
  const int64_t completed = counters.Counter("serve.completed");
  const int64_t timed_out = counters.Counter("serve.timed_out");
  result.Check(requests == rid, "serve.requests != requests sent");
  result.Check(requests == admitted + shed,
               "serve.requests != admitted + shed");
  result.Check(admitted == completed + timed_out,
               "serve.admitted != completed + timed_out");

  // The other set-ups run once peak memory is read: the tensor pool keeps
  // buffers of a destroyed registry parked that later loads do not all
  // reuse (about 6 MiB per load), so earlier repeats would raise the peak.
  m["peak_rss_mb"] = PeakRssMb();
  for (int rep = 1; rep < kSetupReps; ++rep) {
    musenet::serve::ModelRegistry repeat;
    set_up(repeat);
  }
  m["setup_s"] = Median(setup_s);
  if (trace) m["infer.load_ms"] = Median(setup_s) * 1e3;
  spans.WriteJson(dir + "/serve-spans.json");
  result.Print();
  return result.correct ? 0 : 1;
}

}  // namespace musebench
