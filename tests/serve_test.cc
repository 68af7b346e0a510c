// Coverage for the multi-tenant serving layer (src/serve):
// (a) a registry-loaded plan predicts exactly what the checkpointed model
//     predicts (the engine-vs-model shadow gate held at serve time); the
//     service coalesces requests queued behind a replay into batches and
//     slices each request's prediction back out, an idle dispatcher runs a
//     lone request at once, and out-of-range options are rejected by name;
// (b) hot-swap: Swap() bumps the version atomically, requests admitted after
//     the swap acknowledgment are never served by the old plan, and in-flight
//     work drains on the plan it started with (refcount reclamation);
// (c) every rejection path leaves the active plan serving: truncated and
//     bit-flipped containers (including the ArmSwapCorrupt fault hook),
//     injected load failures, and non-finite candidate outputs;
// (d) concurrent swap stress: clients submitting against a tenant being
//     swapped repeatedly see only plan-A or plan-B outputs, never garbage,
//     and the final state serves the final weights (run under TSan in CI);
// (e) a registry-served plan honors the engine's zero-allocation
//     steady-state replay contract (global operator-new counter);
// (f) admission control: bounded-queue shedding under both policies (an
//     unknown policy name is an error), token bucket limits, deadline expiry
//     in queue, and a slow-replay latency spike degrading into shedding
//     rather than collapse;
// (g) drain semantics: outstanding requests complete, later submits are
//     rejected, and the diurnal load generator's report reconciles with the
//     serve.* counters.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "alloc_counter.h"
#include "data/dataset.h"
#include "muse/model.h"
#include "obs/expo.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/loadgen.h"
#include "serve/quality.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "serve/status.h"
#include "serve/watcher.h"
#include "sim/presets.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"
#include "util/bench_config.h"
#include "util/fault_injector.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/status.h"

namespace musenet {
namespace {

namespace ts = musenet::tensor;

data::PeriodicitySpec TinySpec() {
  return data::PeriodicitySpec{.len_closeness = 2, .len_period = 2,
                               .len_trend = 1};
}

data::Batch TinyBatch(int64_t h, int64_t w, uint64_t seed,
                      int64_t batch = 1) {
  const data::PeriodicitySpec spec = TinySpec();
  Rng rng(seed);
  data::Batch b;
  b.closeness = ts::Tensor::RandomUniform(
      ts::Shape({batch, spec.ClosenessChannels(), h, w}), rng, -1.0f, 1.0f);
  b.period = ts::Tensor::RandomUniform(
      ts::Shape({batch, spec.PeriodChannels(), h, w}), rng, -1.0f, 1.0f);
  b.trend = ts::Tensor::RandomUniform(
      ts::Shape({batch, spec.TrendChannels(), h, w}), rng, -1.0f, 1.0f);
  b.target = ts::Tensor::RandomUniform(ts::Shape({batch, 2, h, w}), rng,
                                       -1.0f, 1.0f);
  for (int64_t i = 0; i < batch; ++i) b.target_indices.push_back(200 + i);
  return b;
}

muse::MuseNetConfig TinyMuseConfig() {
  muse::MuseNetConfig config;
  config.grid_h = 3;
  config.grid_w = 4;
  config.periodicity = TinySpec();
  config.repr_dim = 4;
  config.dist_dim = 8;
  config.resplus_blocks = 1;
  return config;
}

float MaxAbsDiff(const ts::Tensor& a, const ts::Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float worst = 0.0f;
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    worst = std::max(worst, std::abs(a.flat(i) - b.flat(i)));
  }
  return worst;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Writes the state dict of a fresh tiny MuseNet seeded with `seed` to
/// `path` and returns a same-weights model for reference predictions.
std::unique_ptr<muse::MuseNet> WriteModelContainer(const std::string& path,
                                                   uint64_t seed) {
  auto model = std::make_unique<muse::MuseNet>(TinyMuseConfig(), seed);
  model->SetTraining(false);
  EXPECT_TRUE(ts::SaveTensors(path, model->StateDict()).ok());
  return model;
}

serve::ModelSpec TinySpecFor(const std::string& name,
                             const std::string& path) {
  serve::ModelSpec spec;
  spec.name = name;
  spec.path = path;
  spec.config = TinyMuseConfig();
  spec.seed = 99;  // Construction weights are always overwritten by load.
  return spec;
}

serve::RegistryOptions ProbedOptions() {
  serve::RegistryOptions options;
  options.probes.push_back(TinyBatch(3, 4, 71, /*batch=*/2));
  options.probes.push_back(TinyBatch(3, 4, 72, /*batch=*/1));
  return options;
}

/// Scoped reset of the fault injector around every test that arms faults.
struct InjectorGuard {
  InjectorGuard() { util::FaultInjector::Instance().Reset(); }
  ~InjectorGuard() { util::FaultInjector::Instance().Reset(); }
};

int64_t CounterValue(const std::string& name) {
  return obs::GetCounter(name).Value();
}

// --- (a) Registry load + parity ---------------------------------------------

TEST(ServeRegistryTest, LoadedPlanMatchesCheckpointedModel) {
  const std::string path = TempPath("serve_parity.tnsr");
  auto reference = WriteModelContainer(path, 11);

  serve::ModelRegistry registry(ProbedOptions());
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());
  EXPECT_EQ(registry.version("bike"), 1);

  auto plan = registry.Acquire("bike");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->version, 1);
  EXPECT_EQ(plan->source_path, path);
  EXPECT_NE(plan->content_hash, 0u);

  data::Batch probe = TinyBatch(3, 4, 33);
  EXPECT_LE(MaxAbsDiff(plan->engine->Predict(probe),
                       reference->Predict(probe)),
            1e-4f);
}

TEST(ServeRegistryTest, DuplicateTenantAndUnknownTenantAreErrors) {
  const std::string path = TempPath("serve_dup.tnsr");
  WriteModelContainer(path, 12);

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());
  EXPECT_FALSE(registry.Load(TinySpecFor("bike", path)).ok());
  EXPECT_EQ(registry.Acquire("nope"), nullptr);
  EXPECT_EQ(registry.version("nope"), 0);
  EXPECT_FALSE(registry.Swap("nope").ok());
}

obs::MetricsSnapshot::HistogramData BatchSizes() {
  return obs::Registry::Instance().Snapshot().histograms["serve.batch_size"];
}

TEST(ServeServiceTest, CoalescesRequestsAndSlicesResults) {
  InjectorGuard guard;
  const std::string path = TempPath("serve_coalesce.tnsr");
  WriteModelContainer(path, 13);

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());
  const int64_t requests_before = CounterValue("serve.requests");
  const obs::MetricsSnapshot::HistogramData sizes_before = BatchSizes();

  std::vector<data::Batch> singles;
  for (uint64_t i = 0; i < 6; ++i) singles.push_back(TinyBatch(3, 4, 40 + i));

  std::vector<ts::Tensor> results;
  {
    serve::ServiceOptions sopts;
    sopts.max_batch = 4;
    serve::ForecastService service(registry, sopts);
    // The first batch stalls, so the requests submitted behind it queue up
    // and must leave together: at most 1 + ceil(5 / 4) batches.
    util::FaultInjector::Instance().ArmSlowReplay(100.0);
    std::vector<std::future<ts::Tensor>> futures;
    for (const data::Batch& b : singles) {
      futures.push_back(service.Submit("bike", b));
    }
    for (auto& f : futures) results.push_back(f.get());
    service.Drain();  // Joins the dispatcher: every batch is observed.
  }
  const obs::MetricsSnapshot::HistogramData sizes_after = BatchSizes();
  EXPECT_EQ(util::FaultInjector::Instance().stats().slow_replays, 1);
  const int64_t batches = sizes_after.total - sizes_before.total;
  EXPECT_GE(batches, 2) << "max_batch 4 cannot carry 6 requests at once";
  EXPECT_LE(batches, 3) << "requests queued behind a replay must coalesce";
  EXPECT_EQ(sizes_after.sum - sizes_before.sum, 6.0);

  // References after drain: the dispatchers have joined, so the loaded
  // model's own eval forward no longer races the engine replaying over it.
  auto plan = registry.Acquire("bike");
  for (size_t i = 0; i < singles.size(); ++i) {
    EXPECT_LE(MaxAbsDiff(results[i], plan->model->Predict(singles[i])), 1e-6f)
        << "request " << i;
  }
  EXPECT_EQ(CounterValue("serve.requests"),
            requests_before + static_cast<int64_t>(singles.size()));
}

TEST(ServeServiceTest, IdleDispatcherDoesNotLinger) {
  const std::string path = TempPath("serve_idle.tnsr");
  WriteModelContainer(path, 14);

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());
  serve::ForecastService service(registry);  // Default max_batch.
  const data::Batch probe = TinyBatch(3, 4, 46);
  service.Submit("bike", probe).get();  // Warm: compiles the batch-1 plan.

  // A lone request on an idle tenant has no peer to wait for: it replays at
  // once instead of lingering for stragglers that never arrive.
  std::vector<double> millis;
  for (int i = 0; i < 20; ++i) {
    const auto start = std::chrono::steady_clock::now();
    service.Submit("bike", probe).get();
    millis.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count());
  }
  std::nth_element(millis.begin(), millis.begin() + 10, millis.end());
  EXPECT_LT(millis[10], 2.0) << "median Submit-to-result time, ms";
}

TEST(ServeServiceTest, InvalidServiceOptionsNameTheirField) {
  EXPECT_TRUE(serve::ValidateServiceOptions(serve::ServiceOptions{}).ok());
  using Options = serve::ServiceOptions;
  const auto expect_rejected = [](const char* field, auto set) {
    Options options;
    set(options);
    const Status status = serve::ValidateServiceOptions(options);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << field;
    // The CLI maps the leading field name to its flag (--max-batch).
    EXPECT_EQ(status.message().rfind(field, 0), 0u) << status.ToString();
  };
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  expect_rejected("max_batch", [](Options& o) { o.max_batch = 0; });
  expect_rejected("max_queue", [](Options& o) { o.max_queue = 0; });
  expect_rejected("deadline_ms", [](Options& o) { o.deadline_ms = -5.0; });
  expect_rejected("deadline_ms", [](Options& o) { o.deadline_ms = kNaN; });
  expect_rejected("deadline_ms", [](Options& o) { o.deadline_ms = kInf; });
  // Enqueue time plus deadline must stay inside int64 nanoseconds.
  expect_rejected("deadline_ms", [](Options& o) { o.deadline_ms = 1e300; });
  Options longest;
  longest.deadline_ms = serve::kMaxDeadlineMs;
  EXPECT_TRUE(serve::ValidateServiceOptions(longest).ok());
  expect_rejected("rate_rps", [](Options& o) { o.rate_rps = -3.0; });
  expect_rejected("rate_rps", [](Options& o) { o.rate_rps = kNaN; });
}

// --- (b) Hot swap ------------------------------------------------------------

TEST(ServeRegistryTest, SwapBumpsVersionAndServesNewWeights) {
  const std::string path = TempPath("serve_swap.tnsr");
  auto model_a = WriteModelContainer(path, 21);

  serve::ModelRegistry registry(ProbedOptions());
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());

  data::Batch probe = TinyBatch(3, 4, 34);
  const ts::Tensor pred_a = registry.Acquire("bike")->engine->Predict(probe);

  // An old-plan snapshot held across the swap keeps serving plan-A numbers:
  // refcount reclamation, not eager teardown.
  auto held = registry.Acquire("bike");

  auto model_b = WriteModelContainer(path, 22);
  ASSERT_TRUE(registry.Swap("bike").ok());
  EXPECT_EQ(registry.version("bike"), 2);

  const ts::Tensor pred_b = registry.Acquire("bike")->engine->Predict(probe);
  EXPECT_LE(MaxAbsDiff(pred_b, model_b->Predict(probe)), 1e-4f);
  EXPECT_GT(MaxAbsDiff(pred_b, pred_a), 1e-3f)
      << "seeds 21/22 should give distinguishable predictions";
  EXPECT_LE(MaxAbsDiff(held->engine->Predict(probe), pred_a), 1e-6f);
}

TEST(ServeServiceTest, RequestAdmittedAfterSwapAckNeverSeesOldPlan) {
  const std::string path = TempPath("serve_swap_ack.tnsr");
  WriteModelContainer(path, 23);

  serve::ModelRegistry registry(ProbedOptions());
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());
  serve::ForecastService service(registry);

  data::Batch probe = TinyBatch(3, 4, 35);
  const ts::Tensor pred_a = service.Submit("bike", probe).get();

  auto model_b = WriteModelContainer(path, 24);
  ASSERT_TRUE(registry.Swap("bike").ok());
  const ts::Tensor expected_b = model_b->Predict(probe);

  // Every request admitted after the ack must be served by plan B.
  for (int i = 0; i < 4; ++i) {
    EXPECT_LE(MaxAbsDiff(service.Submit("bike", probe).get(), expected_b),
              1e-4f);
  }
  EXPECT_GT(MaxAbsDiff(pred_a, expected_b), 1e-3f);
}

// --- (c) Rejection paths ------------------------------------------------------

TEST(ServeRegistryTest, TruncatedContainerIsRejectedAndOldPlanServes) {
  const std::string path = TempPath("serve_corrupt.tnsr");
  WriteModelContainer(path, 31);

  serve::ModelRegistry registry(ProbedOptions());
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());
  data::Batch probe = TinyBatch(3, 4, 36);
  const ts::Tensor before = registry.Acquire("bike")->engine->Predict(probe);

  auto bytes = util::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  const int64_t rejected_before = CounterValue("serve.shadow_rejected");
  ASSERT_TRUE(util::AtomicWriteFile(
                  path, bytes.value().substr(0, bytes.value().size() / 2))
                  .ok());
  EXPECT_FALSE(registry.Swap("bike").ok());
  EXPECT_EQ(registry.version("bike"), 1);
  EXPECT_EQ(CounterValue("serve.shadow_rejected"), rejected_before + 1);
  EXPECT_LE(
      MaxAbsDiff(registry.Acquire("bike")->engine->Predict(probe), before),
      1e-6f);
}

TEST(ServeRegistryTest, InjectedBitFlipAtSwapIsRejectedByCrc) {
  InjectorGuard guard;
  const std::string path = TempPath("serve_bitflip.tnsr");
  WriteModelContainer(path, 32);

  serve::ModelRegistry registry(ProbedOptions());
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());

  util::FaultInjector::Instance().ArmSwapCorrupt();
  const Status status = registry.Swap("bike");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(registry.version("bike"), 1);
  EXPECT_EQ(util::FaultInjector::Instance().stats().swap_corrupts, 1);

  // The fault fires exactly once: the next swap of identical bytes passes.
  EXPECT_TRUE(registry.Swap("bike").ok());
  EXPECT_EQ(registry.version("bike"), 2);
}

TEST(ServeRegistryTest, InjectedLoadFailureIsRejected) {
  InjectorGuard guard;
  const std::string path = TempPath("serve_loadfail.tnsr");
  WriteModelContainer(path, 33);

  serve::ModelRegistry registry(ProbedOptions());
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());

  util::FaultInjector::Instance().ArmLoadFailure();
  const Status status = registry.Swap("bike");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(registry.version("bike"), 1);
  EXPECT_EQ(util::FaultInjector::Instance().stats().load_failures, 1);
}

TEST(ServeRegistryTest, NonFiniteCandidateFailsShadowValidation) {
  const std::string path = TempPath("serve_nan.tnsr");
  auto model = WriteModelContainer(path, 34);

  serve::ModelRegistry registry(ProbedOptions());
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());

  // Poison the weights with NaN: the container parses (CRC is over the
  // poisoned bytes), LoadStateDict accepts the shapes, but the shadow probes
  // must catch the non-finite predictions.
  auto state = model->StateDict();
  ASSERT_FALSE(state.empty());
  for (auto& [key, weights] : state) {
    for (int64_t i = 0; i < weights.num_elements(); ++i) {
      weights.flat(i) = std::numeric_limits<float>::quiet_NaN();
    }
  }
  ASSERT_TRUE(ts::SaveTensors(path, state).ok());

  const int64_t rejected_before = CounterValue("serve.shadow_rejected");
  EXPECT_FALSE(registry.Swap("bike").ok());
  EXPECT_EQ(registry.version("bike"), 1);
  EXPECT_EQ(CounterValue("serve.shadow_rejected"), rejected_before + 1);
}

// --- (d) Concurrent swap stress ----------------------------------------------

TEST(ServeStressTest, ConcurrentClientsAndSwapsSeeOnlyValidPlans) {
  const std::string path_a = TempPath("serve_stress_a.tnsr");
  const std::string path_b = TempPath("serve_stress_b.tnsr");
  auto model_a = WriteModelContainer(path_a, 41);
  auto model_b = WriteModelContainer(path_b, 42);

  serve::ModelRegistry registry(ProbedOptions());
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path_a)).ok());

  data::Batch probe = TinyBatch(3, 4, 43);
  const ts::Tensor pred_a = model_a->Predict(probe);
  const ts::Tensor pred_b = model_b->Predict(probe);
  ASSERT_GT(MaxAbsDiff(pred_a, pred_b), 1e-3f);

  serve::ServiceOptions sopts;
  sopts.max_batch = 4;
  sopts.max_queue = 256;
  serve::ForecastService service(registry, sopts);

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 40;
  constexpr int kSwaps = 10;
  std::atomic<int64_t> bad_results{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &probe, &pred_a, &pred_b, &bad_results] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const ts::Tensor got = service.Submit("bike", probe).get();
        // Every response is exactly one of the two plans' outputs — a torn
        // or mixed result means the swap published a half-built plan.
        const float da = MaxAbsDiff(got, pred_a);
        const float db = MaxAbsDiff(got, pred_b);
        if (da > 1e-4f && db > 1e-4f) {
          bad_results.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::thread swapper([&registry, &path_a, &path_b] {
    for (int s = 0; s < kSwaps; ++s) {
      ASSERT_TRUE(
          registry.Swap("bike", (s % 2 == 0) ? path_b : path_a).ok());
    }
  });

  swapper.join();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(bad_results.load(), 0);

  // kSwaps is even, so the final plan is path_a's weights: a request after
  // the last ack sees exactly those.
  EXPECT_EQ(registry.version("bike"), 1 + kSwaps);
  EXPECT_LE(MaxAbsDiff(service.Submit("bike", probe).get(), pred_a), 1e-4f);
}

// --- (e) Zero-allocation steady-state replay ---------------------------------

TEST(ServeStressTest, RegistryServedPlanReplaysWithoutAllocating) {
  const std::string path = TempPath("serve_zero_alloc.tnsr");
  WriteModelContainer(path, 51);

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());
  auto plan = registry.Acquire("bike");
  ASSERT_NE(plan, nullptr);

  data::Batch probe = TinyBatch(3, 4, 52);
  ts::Tensor out = plan->engine->Predict(probe);  // Warm: compiles the plan.
  ASSERT_TRUE(plan->engine->PredictInto(probe, &out).ok());  // Settle.

  const int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 16; ++i) {
    // Request-id propagation rides the replay hot path (an int64 span arg,
    // set per batch by the dispatcher) — it must not break the
    // zero-allocation contract.
    plan->engine->set_trace_request_id(1000 + i);
    ASSERT_TRUE(plan->engine->PredictInto(probe, &out).ok());
    plan->engine->set_trace_request_id(-1);
  }
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before)
      << "steady-state replay on a registry-served plan must not allocate, "
         "request-id propagation included";
}

// --- (f) Admission control ----------------------------------------------------

TEST(ServeServiceTest, FullQueueShedsNewestByDefault) {
  InjectorGuard guard;
  const std::string path = TempPath("serve_queue.tnsr");
  WriteModelContainer(path, 61);

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());

  serve::ServiceOptions sopts;
  sopts.max_batch = 1;
  sopts.max_queue = 2;
  serve::ForecastService service(registry, sopts);

  // Stall the dispatcher on its first batch so the queue can fill.
  util::FaultInjector::Instance().ArmSlowReplay(150.0);
  data::Batch probe = TinyBatch(3, 4, 62);
  const int64_t shed_before = CounterValue("serve.shed");

  std::vector<std::future<ts::Tensor>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.Submit("bike", probe));
  }
  int completed = 0, shed = 0;
  for (auto& f : futures) {
    try {
      f.get();
      ++completed;
    } catch (const serve::ShedError&) {
      ++shed;
    }
  }
  EXPECT_GT(shed, 0) << "a 2-deep queue cannot absorb an 8-request burst";
  EXPECT_GT(completed, 0);
  EXPECT_EQ(completed + shed, 8);
  EXPECT_EQ(CounterValue("serve.shed"), shed_before + shed);
  EXPECT_EQ(util::FaultInjector::Instance().stats().slow_replays, 1);
}

TEST(ServeServiceTest, DropOldestPolicyCompletesTheNewestRequest) {
  InjectorGuard guard;
  const std::string path = TempPath("serve_oldest.tnsr");
  WriteModelContainer(path, 63);

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());

  serve::ServiceOptions sopts;
  sopts.max_batch = 1;
  sopts.max_queue = 1;
  sopts.shed_policy = serve::ShedPolicy::kDropOldest;
  serve::ForecastService service(registry, sopts);

  util::FaultInjector::Instance().ArmSlowReplay(100.0);
  data::Batch probe = TinyBatch(3, 4, 64);
  std::vector<std::future<ts::Tensor>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(service.Submit("bike", probe));

  // Under drop-oldest the LAST request always survives the burst.
  EXPECT_NO_THROW(futures.back().get());
  int shed = 0;
  for (size_t i = 0; i + 1 < futures.size(); ++i) {
    try {
      futures[i].get();
    } catch (const serve::ShedError&) {
      ++shed;
    }
  }
  EXPECT_GT(shed, 0);
}

TEST(ServeServiceTest, TokenBucketLimitsAdmissionRate) {
  const std::string path = TempPath("serve_bucket.tnsr");
  WriteModelContainer(path, 65);

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());

  serve::ServiceOptions sopts;
  sopts.rate_rps = 0.5;  // Refill far slower than the test runs.
  sopts.burst = 2.0;
  serve::ForecastService service(registry, sopts);

  data::Batch probe = TinyBatch(3, 4, 66);
  EXPECT_NO_THROW(service.Submit("bike", probe).get());
  EXPECT_NO_THROW(service.Submit("bike", probe).get());
  EXPECT_THROW(service.Submit("bike", probe).get(), serve::ShedError);
}

TEST(ServeServiceTest, QueuedRequestPastDeadlineTimesOut) {
  InjectorGuard guard;
  const std::string path = TempPath("serve_deadline.tnsr");
  WriteModelContainer(path, 67);

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());

  serve::ServiceOptions sopts;
  sopts.max_batch = 1;
  sopts.max_queue = 8;
  serve::ForecastService service(registry, sopts);

  // First batch stalls 120ms; the queued request's 5ms deadline expires
  // while it waits and must surface as DeadlineError, not a stale answer.
  util::FaultInjector::Instance().ArmSlowReplay(120.0);
  data::Batch probe = TinyBatch(3, 4, 68);
  const int64_t timed_out_before = CounterValue("serve.timed_out");
  auto first = service.Submit("bike", probe, /*deadline_ms=*/0.0);
  auto second = service.Submit("bike", probe, /*deadline_ms=*/5.0);
  EXPECT_NO_THROW(first.get());
  EXPECT_THROW(second.get(), serve::DeadlineError);
  EXPECT_GE(CounterValue("serve.timed_out"), timed_out_before + 1);
}

TEST(ServeServiceTest, HugePerRequestDeadlineIsClampedAndCompletes) {
  const std::string path = TempPath("serve_huge_deadline.tnsr");
  WriteModelContainer(path, 69);

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());
  serve::ForecastService service(registry);
  const data::Batch probe = TinyBatch(3, 4, 70);
  const int64_t completed_before = CounterValue("serve.completed");
  const int64_t timed_out_before = CounterValue("serve.timed_out");
  // A deadline past int64 nanoseconds is clamped to kMaxDeadlineMs, not
  // cast: each request completes as if it had no deadline.
  for (const double deadline_ms :
       {1e300, std::numeric_limits<double>::infinity()}) {
    EXPECT_NO_THROW(service.Submit("bike", probe, deadline_ms).get())
        << deadline_ms;
  }
  EXPECT_EQ(CounterValue("serve.completed"), completed_before + 2);
  EXPECT_EQ(CounterValue("serve.timed_out"), timed_out_before);
}

TEST(ServeServiceTest, SlowReplaySpikeShedsInsteadOfCollapsing) {
  InjectorGuard guard;
  const std::string path = TempPath("serve_spike.tnsr");
  WriteModelContainer(path, 69);

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());

  serve::ServiceOptions sopts;
  sopts.max_batch = 2;
  sopts.max_queue = 4;
  sopts.deadline_ms = 40.0;
  serve::ForecastService service(registry, sopts);

  util::FaultInjector::Instance().ArmSlowReplay(200.0);
  data::Batch probe = TinyBatch(3, 4, 70);
  std::vector<std::future<ts::Tensor>> futures;
  for (int i = 0; i < 12; ++i) futures.push_back(service.Submit("bike", probe));
  int completed = 0, degraded = 0;
  for (auto& f : futures) {
    try {
      f.get();
      ++completed;
    } catch (const serve::ShedError&) {
      ++degraded;
    } catch (const serve::DeadlineError&) {
      ++degraded;
    }
  }
  EXPECT_EQ(completed + degraded, 12);
  EXPECT_GT(degraded, 0) << "the spike must shed or expire something";

  // The spike is over: the service must serve again, not collapse. Deadline
  // disabled for the probe — the spike legitimately inflated the EWMA that
  // deadline-aware admission consults, and this checks liveness, not SLO.
  EXPECT_NO_THROW(service.Submit("bike", probe, /*deadline_ms=*/0.0).get());
}

// --- (g) Drain, watcher, load generator --------------------------------------

TEST(ServeServiceTest, DrainCompletesOutstandingAndRejectsLaterSubmits) {
  const std::string path = TempPath("serve_drain.tnsr");
  WriteModelContainer(path, 81);

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());
  serve::ForecastService service(registry);

  data::Batch probe = TinyBatch(3, 4, 82);
  std::vector<std::future<ts::Tensor>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(service.Submit("bike", probe));
  service.Drain();
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  EXPECT_THROW(service.Submit("bike", probe).get(), std::runtime_error);
  service.Drain();  // Idempotent.
}

TEST(ServeWatcherTest, SwapsOnContentChangeAndDoesNotRetryRejectedBytes) {
  const std::string path = TempPath("serve_watch.tnsr");
  WriteModelContainer(path, 83);

  serve::ModelRegistry registry(ProbedOptions());
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());
  // Long interval: the test drives sweeps deterministically via PollOnce.
  serve::SwapWatcher watcher(registry, /*interval_ms=*/60000.0);

  EXPECT_EQ(watcher.PollOnce(), 0);  // Unchanged bytes: no swap.

  WriteModelContainer(path, 84);
  EXPECT_EQ(watcher.PollOnce(), 1);
  EXPECT_EQ(registry.version("bike"), 2);
  EXPECT_EQ(watcher.swaps(), 1);

  // A bad publish is rejected once and NOT retried until the bytes change.
  auto bytes = util::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(util::AtomicWriteFile(
                  path, bytes.value().substr(0, bytes.value().size() / 3))
                  .ok());
  EXPECT_EQ(watcher.PollOnce(), 0);
  EXPECT_EQ(watcher.rejects(), 1);
  EXPECT_EQ(watcher.PollOnce(), 0);
  EXPECT_EQ(watcher.rejects(), 1) << "rejected bytes must not be retried";
  EXPECT_EQ(registry.version("bike"), 2);

  WriteModelContainer(path, 85);
  EXPECT_EQ(watcher.PollOnce(), 1);
  EXPECT_EQ(registry.version("bike"), 3);
  watcher.Stop();
}

TEST(ServeLoadGenTest, DiurnalRunReconcilesWithServeCounters) {
  const std::string path = TempPath("serve_loadgen.tnsr");
  WriteModelContainer(path, 91);

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());
  serve::ServiceOptions sopts;
  sopts.max_batch = 4;
  sopts.max_queue = 16;
  serve::ForecastService service(registry, sopts);

  const int64_t requests_before = CounterValue("serve.requests");
  const int64_t admitted_before = CounterValue("serve.admitted");
  const int64_t shed_before = CounterValue("serve.shed");

  BenchScale scale{};  // Zeroed: every dimension falls back to the preset.
  scale.days = 2;
  sim::City city(
      sim::MakeCityConfig(sim::DatasetId::kNycBike, scale, /*seed=*/5), 5);
  std::vector<data::Batch> pool;
  for (uint64_t s = 0; s < 4; ++s) pool.push_back(TinyBatch(3, 4, 92 + s));

  serve::LoadGenOptions lopts;
  lopts.duration_s = 0.5;
  lopts.peak_rps = 200.0;
  lopts.max_outstanding = 32;
  const serve::LoadGenReport report =
      RunLoadGen(service, "bike", pool, city, lopts);

  EXPECT_GT(report.issued, 0);
  EXPECT_EQ(report.issued,
            report.completed + report.shed + report.timed_out + report.errored);
  EXPECT_EQ(report.errored, 0);
  EXPECT_GT(report.p50_ms, 0.0);
  EXPECT_GE(report.p99_ms, report.p50_ms);

  // The generator's classification reconciles with the serve.* counters.
  EXPECT_EQ(CounterValue("serve.requests") - requests_before, report.issued);
  EXPECT_EQ(CounterValue("serve.admitted") - admitted_before,
            report.completed + report.timed_out);
  EXPECT_EQ(CounterValue("serve.shed") - shed_before, report.shed);
}

// --- obs helpers used by the serving bench -----------------------------------

TEST(ServeObsTest, HistogramPercentileInterpolatesWithinBuckets) {
  obs::MetricsSnapshot::HistogramData h;
  h.bounds = {1.0, 2.0, 4.0, 8.0};
  h.counts = {0, 10, 0, 0, 0};  // All mass in (1, 2].
  h.total = 10;
  const double p50 = obs::HistogramPercentile(h, 0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  EXPECT_GT(obs::HistogramPercentile(h, 0.99), p50 - 1e-9);

  obs::MetricsSnapshot::HistogramData overflow;
  overflow.bounds = {1.0, 2.0};
  overflow.counts = {0, 0, 5};  // Overflow bucket only.
  overflow.total = 5;
  EXPECT_EQ(obs::HistogramPercentile(overflow, 0.5), 2.0)
      << "overflow ranks clamp to the last finite edge";

  obs::MetricsSnapshot::HistogramData empty;
  empty.bounds = {1.0};
  empty.counts = {0, 0};
  EXPECT_TRUE(std::isnan(obs::HistogramPercentile(empty, 0.5)))
      << "an empty histogram has no percentiles, and 0.0 would read as a "
         "(great) real latency";
}

// --- (h) Observability plane --------------------------------------------------

/// Minimal blocking HTTP/1.1 GET against 127.0.0.1:`port`.
std::string HttpGet(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ServeObsTest, MetricsScrapeMatchesRegistrySnapshot) {
  const std::string path = TempPath("serve_scrape.tnsr");
  WriteModelContainer(path, 61);

  serve::ModelRegistry registry(ProbedOptions());
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());
  serve::ForecastService service(registry);
  for (int i = 0; i < 3; ++i) {
    service.Submit("bike", TinyBatch(3, 4, 62 + static_cast<uint64_t>(i)))
        .get();
  }

  auto server = obs::ExpoServer::Start(/*port=*/0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  serve::RegisterServeEndpoints(*server.value(), registry, &service);

  const std::string scrape = HttpGet(server.value()->port(), "/metrics");
  EXPECT_NE(scrape.find("HTTP/1.1 200"), std::string::npos);
  // The scraped serve.* counters equal a Registry::Snapshot taken with the
  // service quiescent (every future fulfilled).
  const obs::MetricsSnapshot snapshot = obs::Registry::Instance().Snapshot();
  for (const char* name : {"serve.requests", "serve.admitted",
                           "serve.completed"}) {
    char line[96];
    std::snprintf(line, sizeof(line), "serve_%s %lld", name + 6,
                  static_cast<long long>(snapshot.counters.at(name)));
    EXPECT_NE(scrape.find(line), std::string::npos)
        << name << ": expected '" << line << "' in the scrape";
  }
  EXPECT_NE(scrape.find("serve_latency_ms_bucket"), std::string::npos);

  const std::string health = HttpGet(server.value()->port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(health.find("ready bike v1"), std::string::npos);
}

TEST(ServeObsTest, StatuszDuringInFlightSwapIsNeverTorn) {
  const std::string path = TempPath("serve_statusz_swap.tnsr");
  WriteModelContainer(path, 63);

  // Pin the swap at the shadow stage: the hook blocks the swapping thread
  // until the main thread has scraped /statusz mid-swap.
  std::promise<void> reached_shadow;
  std::promise<void> release_shadow;
  auto reached = reached_shadow.get_future();
  auto release = release_shadow.get_future().share();
  serve::RegistryOptions options = ProbedOptions();
  std::atomic<bool> pinned_once{false};
  options.stage_hook = [&](const std::string&, const char* stage) {
    if (std::string(stage) == "shadow" &&
        !pinned_once.exchange(true)) {
      reached_shadow.set_value();
      release.wait();
    }
  };
  serve::ModelRegistry registry(std::move(options));
  // Initial Load also passes "shadow"; consume that pin immediately.
  std::thread unpin_load([&] {
    reached.wait();
    release_shadow.set_value();
  });
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());
  unpin_load.join();

  // Re-arm the pin for the swap.
  pinned_once.store(false);
  reached_shadow = std::promise<void>();
  release_shadow = std::promise<void>();
  reached = reached_shadow.get_future();
  release = release_shadow.get_future().share();

  WriteModelContainer(path, 64);
  std::thread swapper([&] { ASSERT_TRUE(registry.Swap("bike").ok()); });
  reached.wait();

  // Mid-swap: the active plan is still v1 and internally consistent; the
  // in-flight candidate is visible as progress metadata.
  const std::string mid = serve::StatusJson(registry, nullptr);
  EXPECT_NE(mid.find("\"version\":1"), std::string::npos);
  EXPECT_NE(mid.find("\"swap_state\":\"shadow\""), std::string::npos);
  EXPECT_NE(mid.find("\"candidate_version\":2"), std::string::npos);
  const auto statuses = registry.TenantStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].version, 1);
  EXPECT_NE(statuses[0].content_hash, 0u)
      << "plan fields must come from one snapshot, never a torn mix";

  release_shadow.set_value();
  swapper.join();

  const std::string after = serve::StatusJson(registry, nullptr);
  EXPECT_NE(after.find("\"version\":2"), std::string::npos);
  EXPECT_NE(after.find("\"swap_state\":\"idle\""), std::string::npos);
  EXPECT_NE(after.find("\"candidate_version\":0"), std::string::npos);
}

TEST(ServeObsTest, ShadowRejectionDumpsFlightRecorderPostmortem) {
  InjectorGuard guard;
  const std::string path = TempPath("serve_reject_dump.tnsr");
  WriteModelContainer(path, 65);
  const std::string postmortem = TempPath("serve_reject_postmortem.json");
  std::remove(postmortem.c_str());
  obs::SetPostmortemPath(postmortem);

  serve::ModelRegistry registry(ProbedOptions());
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());

  util::FaultInjector::Instance().ArmSwapCorrupt();
  EXPECT_FALSE(registry.Swap("bike").ok());
  obs::SetPostmortemPath("");

  auto contents = util::ReadFileToString(postmortem);
  ASSERT_TRUE(contents.ok())
      << "a shadow rejection must leave a post-mortem behind";
  EXPECT_NE(contents->find("\"reason\": \"shadow_rejection\""),
            std::string::npos);
  EXPECT_NE(contents->find("serve.swap.rejected"), std::string::npos);
  EXPECT_NE(contents->find("serve.swap.stage"), std::string::npos)
      << "the dump should carry the stage breadcrumbs leading up to the "
         "rejection";
}

TEST(ServeObsTest, LatencyExemplarResolvesToRequestSpanInTrace) {
  const std::string path = TempPath("serve_exemplar.tnsr");
  WriteModelContainer(path, 66);

  serve::ModelRegistry registry(ProbedOptions());
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());

  // Request ids restart at 1 in every ForecastService, so exemplars left by
  // earlier tests in this process would carry ids with no span in this
  // trace. Reset clears them; only this test's requests remain.
  obs::GetHistogram("serve.latency_ms", obs::LatencyBucketsMs()).Reset();
  obs::StartTracing();
  {
    serve::ForecastService service(registry);
    for (int i = 0; i < 4; ++i) {
      service
          .Submit("bike", TinyBatch(3, 4, 67 + static_cast<uint64_t>(i)))
          .get();
    }
  }
  const std::string trace = obs::TraceToJson();
  obs::internal::g_tracing_enabled.store(false);

  const obs::MetricsSnapshot snapshot = obs::Registry::Instance().Snapshot();
  const auto it = snapshot.histograms.find("serve.latency_ms");
  ASSERT_NE(it, snapshot.histograms.end());
  int64_t exemplar = -1;
  for (const int64_t id : it->second.exemplar_ids) {
    exemplar = std::max(exemplar, id);
  }
  ASSERT_GE(exemplar, 0) << "completed requests must leave an exemplar";

  // The exemplar id resolves to this request's submit instant and to the
  // batch span that served it — the scrape-to-trace correlation contract.
  const std::string rid_arg = "\"rid\":" + std::to_string(exemplar);
  EXPECT_NE(trace.find("\"serve.request\""), std::string::npos);
  EXPECT_NE(trace.find(rid_arg), std::string::npos)
      << "exemplar rid " << exemplar << " must appear as a span arg";
  EXPECT_NE(trace.find("\"serve.batch\""), std::string::npos);
}

TEST(ServeObsTest, QualityMonitorTracksMaeBiasAndFlagsDrift) {
  serve::QualityOptions options;
  options.burn_in = 8;
  options.cusum_threshold = 4.0;
  serve::QualityMonitor monitor("qtest", options);

  constexpr int64_t kCells = 6;
  std::vector<float> truth(kCells, 1.0f);
  std::vector<float> good(kCells, 1.1f);  // |err| = 0.1, bias +0.1.
  for (int i = 0; i < 64; ++i) {
    monitor.Observe(good.data(), truth.data(), kCells);
  }
  serve::QualityMonitor::Stats stats = monitor.stats();
  EXPECT_EQ(stats.samples, 64);
  EXPECT_EQ(stats.cells, kCells);
  EXPECT_NEAR(stats.mae, 0.1, 1e-3);
  EXPECT_NEAR(stats.bias, 0.1, 1e-3);
  EXPECT_EQ(stats.drifted_cells, 0)
      << "stable error within the CUSUM allowance must not drift";

  // A 10x error shift accumulates CUSUM mass fast and flags every cell.
  std::vector<float> bad(kCells, 2.0f);  // |err| = 1.0 vs reference ~0.1.
  for (int i = 0; i < 32; ++i) {
    monitor.Observe(bad.data(), truth.data(), kCells);
  }
  stats = monitor.stats();
  EXPECT_GT(stats.cusum_max, options.cusum_threshold);
  EXPECT_EQ(stats.drifted_cells, kCells)
      << "a sustained shift must flag every cell";
  EXPECT_GT(stats.mae, 0.5);

  // The gauges publish the same numbers.
  EXPECT_NEAR(obs::GetGauge("serve.quality.qtest.mae").Value(), stats.mae,
              1e-12);
  EXPECT_EQ(obs::GetGauge("serve.quality.qtest.drifted_cells").Value(),
            static_cast<double>(stats.drifted_cells));
}

TEST(ServeObsTest, ServiceFeedsQualityMonitorFromServePath) {
  const std::string path = TempPath("serve_quality_feed.tnsr");
  WriteModelContainer(path, 68);

  serve::ModelRegistry registry(ProbedOptions());
  ASSERT_TRUE(registry.Load(TinySpecFor("bike", path)).ok());
  serve::ServiceOptions options;
  options.monitor_quality = true;
  serve::ForecastService service(registry, options);

  for (int i = 0; i < 5; ++i) {
    service.Submit("bike", TinyBatch(3, 4, 69 + static_cast<uint64_t>(i)))
        .get();
  }
  const serve::ForecastService::TenantRuntime runtime =
      service.runtime("bike");
  EXPECT_TRUE(runtime.quality_enabled);
  EXPECT_EQ(runtime.quality.samples, 5);
  EXPECT_EQ(runtime.quality.cells, 2 * 3 * 4);
  EXPECT_GT(runtime.quality.mae, 0.0)
      << "random targets vs real predictions must show nonzero error";

  const std::string statusz = serve::StatusJson(registry, &service);
  EXPECT_NE(statusz.find("\"quality\":{\"samples\":5"), std::string::npos);
  EXPECT_NE(statusz.find("\"queue_depth\":"), std::string::npos);
  EXPECT_NE(statusz.find("\"token_fill\":"), std::string::npos);
  EXPECT_NE(statusz.find("\"ewma_batch_ms\":"), std::string::npos);
}

}  // namespace
}  // namespace musenet
