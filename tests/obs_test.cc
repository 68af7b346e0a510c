// Observability-layer coverage (src/obs/, see DESIGN.md "Observability"):
// (a) tracing — span nesting and cross-thread merge produce a valid,
//     ts-ordered Chrome trace_event document, and a *disabled* span performs
//     no heap allocation (the near-zero-cost contract);
// (b) metrics — counter/histogram shard merges, gauge semantics, and the
//     deterministic JSON snapshot;
// (c) run telemetry — RunRecord/RunLog round-trips through ReadRunLog, and
//     a deterministic training run writes a byte-identical metrics.jsonl at
//     1 and 4 threads when timings are off.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "alloc_counter.h"
#include "data/dataset.h"
#include "eval/forecaster.h"
#include "muse/config.h"
#include "muse/model.h"
#include "obs/expo.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/run_log.h"
#include "obs/trace.h"
#include "sim/flow_series.h"
#include "tensor/storage_pool.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace musenet {
namespace {

namespace ts = musenet::tensor;

// --- Tracing ---------------------------------------------------------------

/// Extracts every `"key":<number>` occurrence from a trace document, in
/// order. Good enough to check ordering without a JSON parser.
std::vector<double> ExtractNumbers(const std::string& json,
                                   const std::string& key) {
  std::vector<double> values;
  const std::string needle = "\"" + key + "\":";
  size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    values.push_back(std::strtod(json.c_str() + pos, nullptr));
  }
  return values;
}

int CountOccurrences(const std::string& text, const std::string& needle) {
  int count = 0;
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

TEST(TraceTest, NestedSpansProduceOrderedCompleteEvents) {
  obs::StartTracing();
  {
    obs::ScopedSpan outer("outer_span", "level", 0);
    obs::ScopedSpan inner("inner_span");
    obs::TraceInstant("instant_mark", "step", 42);
  }
  const std::string json = obs::TraceToJson();
  obs::internal::g_tracing_enabled.store(false);

  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(1, CountOccurrences(json, "\"outer_span\""));
  EXPECT_EQ(1, CountOccurrences(json, "\"inner_span\""));
  EXPECT_EQ(1, CountOccurrences(json, "\"instant_mark\""));
  EXPECT_NE(json.find("\"args\":{\"level\":0}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"step\":42}"), std::string::npos);
  // The instant is "ph":"i"; the spans are complete events "ph":"X".
  EXPECT_EQ(2, CountOccurrences(json, "\"ph\":\"X\""));
  EXPECT_EQ(1, CountOccurrences(json, "\"ph\":\"i\""));

  // Timestamps are globally non-decreasing (the strict-merge contract), and
  // the outer span opened no later than the inner one.
  const std::vector<double> ts = ExtractNumbers(json, "ts");
  ASSERT_EQ(ts.size(), 3u);
  for (size_t i = 1; i < ts.size(); ++i) EXPECT_GE(ts[i], ts[i - 1]);
  const std::vector<double> durs = ExtractNumbers(json, "dur");
  ASSERT_EQ(durs.size(), 2u);
  EXPECT_GE(durs[0], durs[1]);  // Outer encloses inner.
}

TEST(TraceTest, MergesSpansFromManyThreadsInTimestampOrder) {
  obs::StartTracing();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::ScopedSpan span("worker_span", "i", i);
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::string json = obs::TraceToJson();
  obs::internal::g_tracing_enabled.store(false);

  EXPECT_EQ(kThreads * kSpansPerThread,
            CountOccurrences(json, "\"worker_span\""));
  const std::vector<double> ts = ExtractNumbers(json, "ts");
  EXPECT_EQ(ts.size(), static_cast<size_t>(kThreads * kSpansPerThread));
  for (size_t i = 1; i < ts.size(); ++i) EXPECT_GE(ts[i], ts[i - 1]);
  EXPECT_EQ(obs::DroppedEventCount(), 0);
}

TEST(TraceTest, StopTracingWritesDocumentAndClearsBuffers) {
  const std::string path = ::testing::TempDir() + "/obs_trace.json";
  obs::StartTracing();
  { obs::ScopedSpan span("flushed_span"); }
  ASSERT_TRUE(obs::StopTracingAndWrite(path).ok());
  EXPECT_FALSE(obs::TracingEnabled());

  auto contents = util::ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->front(), '{');
  EXPECT_NE(contents->find("\"flushed_span\""), std::string::npos);
  EXPECT_NE(contents->find("\"droppedEvents\":0"), std::string::npos);

  // Buffers were cleared: a fresh trace no longer holds the old span.
  obs::StartTracing();
  const std::string fresh = obs::TraceToJson();
  obs::internal::g_tracing_enabled.store(false);
  EXPECT_EQ(fresh.find("\"flushed_span\""), std::string::npos);
}

TEST(TraceTest, DisabledSpansDoNotAllocate) {
  ASSERT_FALSE(obs::TracingEnabled());
  // Warm up the thread-local buffer registration path (it allocates once per
  // thread, on first *enabled* use only — but keep the test independent of
  // that detail).
  { obs::ScopedSpan warmup("warmup"); }

  const int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    obs::ScopedSpan span("disabled_span", "i", i);
    obs::TraceInstant("disabled_instant");
  }
  const int64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after) << "disabled spans must not touch the heap";
}

TEST(TraceTest, CounterUpdatesDoNotAllocate) {
  obs::Counter& counter = obs::GetCounter("obs_test.noalloc_counter");
  obs::Histogram& hist =
      obs::GetHistogram("obs_test.noalloc_hist", obs::LatencyBucketsMs());
  counter.Add();        // Warm-up: shard assignment for this thread.
  hist.Observe(1.0);
  const int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    counter.Add(2);
    hist.Observe(static_cast<double>(i % 100));
  }
  const int64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after) << "counter/histogram updates must not allocate";
}

// --- Metrics ---------------------------------------------------------------

TEST(MetricsTest, CounterMergesShardsAcrossThreads) {
  obs::Counter& counter = obs::GetCounter("obs_test.threaded_counter");
  counter.Reset();
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kAddsPerThread);
}

TEST(MetricsTest, GaugeSetAddKeepMax) {
  obs::Gauge& gauge = obs::GetGauge("obs_test.gauge");
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 2.5);
  gauge.Add(1.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 4.0);
  gauge.KeepMax(3.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 4.0);  // Lower candidate ignored.
  gauge.KeepMax(10.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 10.0);
}

TEST(MetricsTest, HistogramBucketsAndSum) {
  obs::Histogram& hist =
      obs::GetHistogram("obs_test.hist", {1.0, 10.0, 100.0});
  hist.Reset();
  hist.Observe(0.5);    // bucket 0 (<= 1)
  hist.Observe(1.0);    // bucket 0 (<= 1, inclusive upper edge)
  hist.Observe(5.0);    // bucket 1
  hist.Observe(50.0);   // bucket 2
  hist.Observe(1000.0); // overflow
  EXPECT_EQ(hist.TotalCount(), 5);
  EXPECT_DOUBLE_EQ(hist.Sum(), 1056.5);
  const std::vector<int64_t> counts = hist.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
}

TEST(MetricsTest, SnapshotJsonIsDeterministic) {
  obs::GetCounter("obs_test.json_counter").Add(7);
  obs::GetGauge("obs_test.json_gauge").Set(0.25);
  const std::string a = obs::MetricsToJson(obs::Registry::Instance().Snapshot());
  const std::string b = obs::MetricsToJson(obs::Registry::Instance().Snapshot());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.front(), '{');
  EXPECT_EQ(a.back(), '\n');
  EXPECT_NE(a.find("\"obs_test.json_counter\":"), std::string::npos);
  EXPECT_NE(a.find("\"obs_test.json_gauge\": 0.25"), std::string::npos);
}

TEST(MetricsTest, ResetClearsCountersButKeepsGauges) {
  obs::Counter& counter = obs::GetCounter("obs_test.reset_counter");
  obs::Gauge& gauge = obs::GetGauge("obs_test.reset_gauge");
  counter.Add(5);
  gauge.Set(3.5);
  obs::Registry::Instance().ResetCountersAndHistograms();
  EXPECT_EQ(counter.Value(), 0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 3.5);
}

TEST(MetricsTest, PoolStatsAreMirroredInRegistry) {
  ts::StoragePool& pool = ts::StoragePool::Instance();
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  {
    std::vector<float> buf = pool.Acquire(1024, /*zero=*/true);
    pool.Release(std::move(buf));
  }
  // The registry instruments are the pool's only stats surface: one release
  // and exactly one acquisition (fresh or reused) must land there.
  const obs::MetricsSnapshot after = obs::Registry::Instance().Snapshot();
  auto counter = [](const obs::MetricsSnapshot& snap, const char* name) {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? int64_t{0} : it->second;
  };
  EXPECT_EQ(counter(after, "tensor.pool.releases"),
            counter(before, "tensor.pool.releases") + 1);
  EXPECT_EQ(counter(after, "tensor.pool.fresh_allocs") +
                counter(after, "tensor.pool.reuses"),
            counter(before, "tensor.pool.fresh_allocs") +
                counter(before, "tensor.pool.reuses") + 1);
  EXPECT_GE(after.gauges.at("tensor.pool.bytes_live"), 0.0);
  EXPECT_GE(after.gauges.at("tensor.pool.bytes_peak"),
            after.gauges.at("tensor.pool.bytes_live"));
}

// --- Run log ---------------------------------------------------------------

TEST(RunLogTest, RecordsRoundTripThroughReader) {
  const std::string path = ::testing::TempDir() + "/obs_run_log.jsonl";
  {
    auto log = obs::RunLog::Open(path, /*truncate=*/true);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_TRUE(log->Append(obs::RunRecord("step")
                                .Int("epoch", 0)
                                .Int("step", 12)
                                .Double("loss", 0.125)
                                .Bool("improved", true))
                    .ok());
    ASSERT_TRUE(log->Append(obs::RunRecord("epoch")
                                .Double("val_mse", 1.5)
                                .Str("note", "hello \"quoted\" world"))
                    .ok());
  }
  auto records = obs::ReadRunLog(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);

  const auto& step = (*records)[0];
  ASSERT_GE(step.size(), 5u);
  EXPECT_EQ(step[0].first, "event");
  EXPECT_EQ(step[0].second, "step");
  EXPECT_EQ(step[2].first, "step");
  EXPECT_EQ(step[2].second, "12");
  EXPECT_EQ(step[3].second, "0.125");
  EXPECT_EQ(step[4].second, "true");

  const auto& epoch = (*records)[1];
  EXPECT_EQ(epoch[0].second, "epoch");
  EXPECT_EQ(epoch[1].second, "1.5");
  EXPECT_EQ(epoch[2].second, "hello \"quoted\" world");
}

TEST(RunLogTest, NonFiniteDoublesBecomeNull) {
  const obs::RunRecord rec =
      obs::RunRecord("probe").Double("inf", INFINITY).Double("nan", NAN);
  EXPECT_NE(rec.Json().find("\"inf\":null"), std::string::npos);
  EXPECT_NE(rec.Json().find("\"nan\":null"), std::string::npos);
}

TEST(RunLogTest, AppendModePreservesExistingRecords) {
  const std::string path = ::testing::TempDir() + "/obs_run_log_append.jsonl";
  {
    auto log = obs::RunLog::Open(path, /*truncate=*/true);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(obs::RunRecord("first")).ok());
  }
  {
    auto log = obs::RunLog::Open(path, /*truncate=*/false);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(obs::RunRecord("second")).ok());
  }
  auto records = obs::ReadRunLog(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0][0].second, "first");
  EXPECT_EQ((*records)[1][0].second, "second");
}

// --- Run-log byte stability across thread counts ---------------------------

data::PeriodicitySpec TinySpec() {
  return data::PeriodicitySpec{.len_closeness = 2, .len_period = 2,
                               .len_trend = 1};
}

/// The tiny deterministic dataset used across the training tests: 14 days of
/// sinusoidal daily structure on a 3x4 grid.
data::TrafficDataset TinyDataset() {
  const int f = 24;
  sim::FlowSeries flows(sim::GridSpec{3, 4}, f, 0, 14 * f);
  Rng noise(9);
  for (int64_t t = 0; t < flows.num_intervals(); ++t) {
    const double base =
        5.0 + 4.0 * std::sin(2.0 * M_PI * flows.IntervalOfDay(t) / f);
    for (int flow = 0; flow < 2; ++flow) {
      for (int64_t h = 0; h < 3; ++h) {
        for (int64_t w = 0; w < 4; ++w) {
          flows.at(t, flow, h, w) =
              static_cast<float>(std::max(0.0, base + noise.Normal(0, 0.5)));
        }
      }
    }
  }
  data::DatasetOptions options;
  options.spec = TinySpec();
  options.test_days = 3;
  return data::TrafficDataset(std::move(flows), options);
}

muse::MuseNetConfig TinyConfig() {
  muse::MuseNetConfig config;
  config.grid_h = 3;
  config.grid_w = 4;
  config.periodicity = TinySpec();
  config.repr_dim = 4;
  config.dist_dim = 8;
  config.resplus_blocks = 1;
  return config;
}

/// Trains the tiny model for 2 epochs at `num_threads`, returns the raw
/// bytes of the produced run log (timings off).
std::string TrainAndReadRunLog(int num_threads, const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "/obs_stability_" + tag + ".jsonl";
  util::ThreadPool pool(num_threads);
  util::ScopedActivePool guard(&pool);

  data::TrafficDataset ds = TinyDataset();
  muse::MuseNet model(TinyConfig(), 2);
  eval::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 8;
  tc.learning_rate = 1e-3;
  tc.run_log_path = path;
  tc.run_log_timings = false;  // Deterministic fields only.
  EXPECT_TRUE(model.TrainWithReport(ds, tc, nullptr).ok());

  auto contents = util::ReadFileToString(path);
  EXPECT_TRUE(contents.ok()) << contents.status().ToString();
  return std::move(contents).value_or(std::string());
}

TEST(RunLogTest, ByteStableAcrossThreadCounts) {
  const std::string log1 = TrainAndReadRunLog(1, "t1");
  const std::string log4 = TrainAndReadRunLog(4, "t4");
  ASSERT_FALSE(log1.empty());
  EXPECT_EQ(log1, log4)
      << "run log with timings off must be byte-identical at any thread "
         "count (the determinism contract)";
  // Sanity: the log carries per-step and per-epoch records plus the summary.
  EXPECT_NE(log1.find("\"event\":\"step\""), std::string::npos);
  EXPECT_NE(log1.find("\"event\":\"epoch\""), std::string::npos);
  EXPECT_NE(log1.find("\"event\":\"done\""), std::string::npos);
  EXPECT_NE(log1.find("\"grad_norm\":"), std::string::npos);
}

TEST(RunLogTest, WriteMetricsSnapshotProducesJsonFile) {
  const std::string path = ::testing::TempDir() + "/obs_metrics.json";
  obs::GetCounter("obs_test.snapshot_counter").Add();
  ASSERT_TRUE(obs::WriteMetricsSnapshot(path).ok());
  auto contents = util::ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->front(), '{');
  EXPECT_NE(contents->find("\"counters\""), std::string::npos);
  EXPECT_NE(contents->find("\"obs_test.snapshot_counter\""),
            std::string::npos);
}

// --- Percentile edge cases ---------------------------------------------------

TEST(MetricsTest, HistogramPercentileEmptyIsNaN) {
  obs::MetricsSnapshot::HistogramData empty;
  empty.bounds = {1.0, 2.0};
  empty.counts = {0, 0, 0};
  EXPECT_TRUE(std::isnan(obs::HistogramPercentile(empty, 0.5)));
  EXPECT_TRUE(std::isnan(obs::HistogramPercentile(empty, 0.99)));
}

TEST(MetricsTest, HistogramPercentileSinglePopulatedBucketInterpolates) {
  obs::MetricsSnapshot::HistogramData h;
  h.bounds = {1.0, 2.0, 4.0};
  h.counts = {0, 0, 100, 0};  // All mass in (2, 4].
  h.total = 100;
  // Percentiles interpolate linearly across the one populated bucket: the
  // p-quantile sits at fraction p of the way through (2, 4].
  EXPECT_NEAR(obs::HistogramPercentile(h, 0.25), 2.5, 0.05);
  EXPECT_NEAR(obs::HistogramPercentile(h, 0.50), 3.0, 0.05);
  EXPECT_NEAR(obs::HistogramPercentile(h, 0.75), 3.5, 0.05);
  const double p1 = obs::HistogramPercentile(h, 0.01);
  const double p99 = obs::HistogramPercentile(h, 0.99);
  EXPECT_GE(p1, 2.0);
  EXPECT_LE(p99, 4.0);
  EXPECT_LT(p1, p99);
}

TEST(MetricsTest, HistogramPercentileOverflowClampsToLastFiniteBound) {
  obs::MetricsSnapshot::HistogramData h;
  h.bounds = {1.0, 2.0};
  h.counts = {0, 1, 9};  // p50+ rank lands in the +Inf bucket.
  h.total = 10;
  EXPECT_EQ(obs::HistogramPercentile(h, 0.99), 2.0)
      << "overflow percentiles clamp to the last finite bound rather than "
         "inventing a value beyond it";

  obs::MetricsSnapshot::HistogramData unbounded;
  unbounded.counts = {5};  // Degenerate: only an overflow bucket exists.
  unbounded.total = 5;
  EXPECT_TRUE(std::isnan(obs::HistogramPercentile(unbounded, 0.5)));
}

// --- Two-arg spans + atexit flush -------------------------------------------

TEST(TraceTest, TwoArgSpansEmitBothArgs) {
  obs::StartTracing();
  {
    obs::ScopedSpan span("two_arg_span", "size", 4, "rid", 71);
    obs::ScopedSpan late("late_arg_span");
    late.SetArg2("rid", 72);
    obs::TraceInstant("two_arg_instant", "size", 1, "rid", 73);
  }
  const std::string json = obs::TraceToJson();
  obs::internal::g_tracing_enabled.store(false);
  EXPECT_NE(json.find("\"args\":{\"size\":4,\"rid\":71}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"rid\":72}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"size\":1,\"rid\":73}"), std::string::npos);
}

TEST(TraceTest, AtExitFlushIsIdempotentAfterExplicitStop) {
  const std::string explicit_path =
      ::testing::TempDir() + "/obs_atexit_explicit.json";
  const std::string atexit_path =
      ::testing::TempDir() + "/obs_atexit_flush.json";

  // An explicit stop consumed the trace; the atexit callback must not write
  // an empty document over nothing-in-particular afterwards.
  obs::StartTracing();
  { obs::ScopedSpan span("atexit_span"); }
  ASSERT_TRUE(obs::StopTracingAndWrite(explicit_path).ok());
  std::remove(atexit_path.c_str());
  obs::internal::RunAtExitFlushForTest(atexit_path);
  EXPECT_FALSE(util::ReadFileToString(atexit_path).ok())
      << "flush after explicit stop must be a no-op";

  // A live trace flushes exactly once even if the callback reenters.
  obs::StartTracing();
  { obs::ScopedSpan span("atexit_live_span"); }
  obs::internal::RunAtExitFlushForTest(atexit_path);
  auto first = util::ReadFileToString(atexit_path);
  ASSERT_TRUE(first.ok());
  EXPECT_NE(first->find("\"atexit_live_span\""), std::string::npos);
  std::remove(atexit_path.c_str());
  obs::internal::RunAtExitFlushForTest(atexit_path);
  EXPECT_FALSE(util::ReadFileToString(atexit_path).ok())
      << "second flush must be a no-op (double-atexit safety)";
}

// --- Exemplars + Prometheus exposition ---------------------------------------

TEST(MetricsTest, HistogramExemplarRoundTripsThroughSnapshot) {
  obs::Histogram& hist =
      obs::GetHistogram("obs_test.exemplar_hist", {1.0, 10.0, 100.0});
  hist.Observe(5.0, /*exemplar_id=*/42);
  hist.Observe(50.0, /*exemplar_id=*/43);
  hist.Observe(0.5);  // No exemplar: plain observation.

  const obs::MetricsSnapshot snapshot = obs::Registry::Instance().Snapshot();
  const auto it = snapshot.histograms.find("obs_test.exemplar_hist");
  ASSERT_NE(it, snapshot.histograms.end());
  const auto& data = it->second;
  ASSERT_EQ(data.exemplar_ids.size(), 4u);
  EXPECT_EQ(data.exemplar_ids[0], -1) << "(0.5, no id] bucket has none";
  EXPECT_EQ(data.exemplar_ids[1], 42);
  EXPECT_EQ(data.exemplar_values[1], 5.0);
  EXPECT_EQ(data.exemplar_ids[2], 43);
  EXPECT_EQ(data.exemplar_values[2], 50.0);

  const std::string prom = obs::MetricsToPrometheus(snapshot);
  EXPECT_NE(prom.find("# {request_id=\"42\"} 5"), std::string::npos);
  EXPECT_NE(prom.find("# {request_id=\"43\"} 50"), std::string::npos);
}

TEST(MetricsTest, PrometheusTextMatchesSnapshot) {
  obs::GetCounter("obs_test.prom_counter").Add(7);
  obs::GetGauge("obs_test.prom-gauge").Set(2.5);  // '-' sanitizes to '_'.
  obs::GetHistogram("obs_test.prom_hist", {1.0, 2.0}).Observe(1.5);

  const obs::MetricsSnapshot snapshot = obs::Registry::Instance().Snapshot();
  const std::string prom = obs::MetricsToPrometheus(snapshot);

  EXPECT_NE(prom.find("# TYPE obs_test_prom_counter counter"),
            std::string::npos)
      << "'.' sanitizes to '_' and every metric keeps a TYPE line";
  char line[96];
  std::snprintf(line, sizeof(line), "obs_test_prom_counter %lld",
                static_cast<long long>(
                    snapshot.counters.at("obs_test.prom_counter")));
  EXPECT_NE(prom.find(line), std::string::npos)
      << "scrape value must equal Registry::Snapshot value";
  EXPECT_NE(prom.find("obs_test_prom_gauge 2.5"), std::string::npos);
  EXPECT_NE(prom.find("obs_test_prom_hist_bucket{le=\"2\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("obs_test_prom_hist_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("obs_test_prom_hist_count"), std::string::npos);
}

// --- Exposition server --------------------------------------------------------

/// Minimal blocking HTTP/1.1 GET against 127.0.0.1:`port`. Returns the full
/// response (status line + headers + body).
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

TEST(ExpoServerTest, ServesMetricsHealthzAnd404) {
  obs::GetCounter("obs_test.expo_counter").Add(3);
  auto server = obs::ExpoServer::Start(/*port=*/0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  ASSERT_GT(port, 0);

  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
  // The scrape body carries the registry snapshot rendered to Prometheus
  // text — including the exact counter value.
  char line[96];
  std::snprintf(line, sizeof(line), "obs_test_expo_counter %lld",
                static_cast<long long>(
                    obs::GetCounter("obs_test.expo_counter").Value()));
  EXPECT_NE(metrics.find(line), std::string::npos);

  const std::string health = HttpGet(port, "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  EXPECT_NE(HttpGet(port, "/nope").find("HTTP/1.1 404"), std::string::npos);

  server.value()->Stop();
  server.value()->Stop();  // Idempotent.
}

// --- Flight recorder ----------------------------------------------------------

TEST(FlightRecorderTest, RecordsAndDumpsRecentEvents) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Instance();
  recorder.Record("obs_test.flight_a", 1, 2, "detail-a");
  recorder.Record("obs_test.flight_b", 3);
  const std::string json = recorder.ToJson("unit_test");
  EXPECT_NE(json.find("\"reason\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("obs_test.flight_a"), std::string::npos);
  EXPECT_NE(json.find("detail-a"), std::string::npos);
  EXPECT_NE(json.find("obs_test.flight_b"), std::string::npos);
  EXPECT_GE(recorder.recorded(), 2);
}

TEST(FlightRecorderTest, RingKeepsOnlyMostRecentEvents) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Instance();
  recorder.Record("obs_test.flight_evicted");
  for (int i = 0; i < obs::kFlightCapacity + 16; ++i) {
    recorder.Record("obs_test.flight_filler", i);
  }
  const std::string json = recorder.ToJson("wrap");
  EXPECT_EQ(json.find("obs_test.flight_evicted"), std::string::npos)
      << "events older than the ring capacity must be gone";
  EXPECT_NE(json.find("obs_test.flight_filler"), std::string::npos);
}

TEST(FlightRecorderTest, DumpRequiresConfiguredPath) {
  obs::SetPostmortemPath("");
  EXPECT_FALSE(obs::DumpFlightRecorder("no_path").ok());

  const std::string path = ::testing::TempDir() + "/obs_postmortem.json";
  obs::SetPostmortemPath(path);
  obs::FlightRecorder::Instance().Record("obs_test.flight_dump", 9);
  ASSERT_TRUE(obs::DumpFlightRecorder("explicit_dump").ok());
  auto contents = util::ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_NE(contents->find("\"reason\": \"explicit_dump\""),
            std::string::npos);
  EXPECT_NE(contents->find("obs_test.flight_dump"), std::string::npos);
  obs::SetPostmortemPath("");
}

TEST(FlightRecorderDeathTest, FatalSignalWritesPostmortem) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path =
      ::testing::TempDir() + "/obs_postmortem_crash.json";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        obs::SetPostmortemPath(path);
        obs::InstallCrashHandler();
        obs::FlightRecorder::Instance().Record("obs_test.pre_crash", 7);
        std::raise(SIGSEGV);
      },
      ::testing::KilledBySignal(SIGSEGV), "");
  auto contents = util::ReadFileToString(path);
  ASSERT_TRUE(contents.ok())
      << "the crash handler must leave a post-mortem behind";
  EXPECT_NE(contents->find("\"reason\": \"SIGSEGV\""), std::string::npos);
  EXPECT_NE(contents->find("obs_test.pre_crash"), std::string::npos);
}

}  // namespace
}  // namespace musenet
