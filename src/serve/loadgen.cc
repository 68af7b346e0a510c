#include "serve/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace musenet::serve {

namespace {

struct InFlight {
  std::future<tensor::Tensor> future;
};

void Harvest(InFlight&& request, LoadGenReport* report) {
  try {
    request.future.get();
    report->completed++;
  } catch (const ShedError&) {
    report->shed++;
  } catch (const DeadlineError&) {
    report->timed_out++;
  } catch (...) {
    report->errored++;
  }
}

/// serve.latency_ms delta between two snapshots, as a histogram.
obs::MetricsSnapshot::HistogramData LatencyDelta(
    const obs::MetricsSnapshot& before, const obs::MetricsSnapshot& after) {
  obs::MetricsSnapshot::HistogramData delta;
  auto it = after.histograms.find("serve.latency_ms");
  if (it == after.histograms.end()) return delta;
  delta = it->second;
  auto prev = before.histograms.find("serve.latency_ms");
  if (prev != before.histograms.end() &&
      prev->second.counts.size() == delta.counts.size()) {
    for (size_t i = 0; i < delta.counts.size(); ++i) {
      delta.counts[i] -= prev->second.counts[i];
    }
    delta.total -= prev->second.total;
    delta.sum -= prev->second.sum;
  }
  return delta;
}

}  // namespace

LoadGenReport RunLoadGen(ForecastService& service, const std::string& tenant,
                         const std::vector<data::Batch>& pool,
                         const sim::City& city,
                         const LoadGenOptions& options) {
  MUSE_CHECK(!pool.empty()) << "load generator needs at least one probe batch";
  MUSE_CHECK(options.duration_s > 0.0) << "duration_s must be > 0";
  MUSE_CHECK(options.peak_rps > 0.0) << "peak_rps must be > 0";
  MUSE_CHECK(options.sim_days >= 1) << "sim_days must be >= 1";

  // Normalize the profile so peak_rps is hit exactly at the diurnal maximum.
  const int64_t sim_intervals = static_cast<int64_t>(options.sim_days) *
                                city.config().intervals_per_day;
  double peak_profile = 0.0;
  for (int64_t t = 0; t < sim_intervals; ++t) {
    peak_profile = std::max(peak_profile, city.ProfileAt(t));
  }
  MUSE_CHECK(peak_profile > 0.0) << "diurnal profile is identically zero";

  Rng rng(options.seed);
  LoadGenReport report;
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  const int64_t start_ns = util::MonotonicNowNanos();
  const int64_t end_ns =
      start_ns + static_cast<int64_t>(options.duration_s * 1e9);

  std::deque<InFlight> outstanding;
  size_t next_probe = 0;
  // Arrivals follow a schedule clock, not the wall clock: each Poisson gap
  // advances next_arrival_ns, and the generator only sleeps when the
  // schedule is in the future. When issuing falls behind (service slower
  // than the offered rate), it catches up in a burst instead of silently
  // degrading the rate — otherwise sleep overhead would cap the offered
  // load below what an "8x sustainable" overload run needs.
  int64_t next_arrival_ns = start_ns;
  for (;;) {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      break;
    }
    // Schedule position -> simulated interval -> instantaneous rate.
    const double progress = static_cast<double>(next_arrival_ns - start_ns) /
                            (options.duration_s * 1e9);
    const int64_t sim_t = std::min(
        sim_intervals - 1,
        static_cast<int64_t>(progress * static_cast<double>(sim_intervals)));
    const double rate =
        options.peak_rps * city.ProfileAt(sim_t) / peak_profile;

    // Poisson arrivals: exponential inter-arrival at the current rate. The
    // night trough can push the gap past the run end; clamp so the run
    // ends on time.
    const double rate_floor = std::max(rate, options.peak_rps * 1e-3);
    const double gap_s = -std::log(1.0 - rng.Uniform()) / rate_floor;
    next_arrival_ns += static_cast<int64_t>(std::min(gap_s, 1.0) * 1e9);
    if (next_arrival_ns >= end_ns) break;
    const int64_t ahead_ns = next_arrival_ns - util::MonotonicNowNanos();
    if (ahead_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ahead_ns));
    }

    // Closed loop: cap in-flight requests, harvesting the oldest first.
    while (static_cast<int>(outstanding.size()) >= options.max_outstanding) {
      Harvest(std::move(outstanding.front()), &report);
      outstanding.pop_front();
    }
    // Opportunistically drain already-resolved futures so the deque stays
    // small under light load.
    while (!outstanding.empty() &&
           outstanding.front().future.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      Harvest(std::move(outstanding.front()), &report);
      outstanding.pop_front();
    }

    const data::Batch& probe = pool[next_probe];
    next_probe = (next_probe + 1) % pool.size();
    outstanding.push_back(
        {service.Submit(tenant, probe, options.deadline_ms)});
    report.issued++;
  }

  while (!outstanding.empty()) {
    Harvest(std::move(outstanding.front()), &report);
    outstanding.pop_front();
  }
  report.wall_s =
      static_cast<double>(util::MonotonicNowNanos() - start_ns) / 1e9;

  const obs::MetricsSnapshot after = obs::Registry::Instance().Snapshot();
  const auto latency = LatencyDelta(before, after);
  // HistogramPercentile reports NaN for "no data"; a run that completed
  // nothing reports 0 here so the report (and the JSON the bench writes
  // from it) stays well-formed.
  report.p50_ms =
      latency.total > 0 ? obs::HistogramPercentile(latency, 0.50) : 0.0;
  report.p99_ms =
      latency.total > 0 ? obs::HistogramPercentile(latency, 0.99) : 0.0;
  return report;
}

}  // namespace musenet::serve
