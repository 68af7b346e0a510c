#ifndef MUSENET_SERVE_LOADGEN_H_
#define MUSENET_SERVE_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "serve/service.h"
#include "sim/city.h"

namespace musenet::serve {

/// Closed-loop diurnal load generation policy.
struct LoadGenOptions {
  double duration_s = 10.0;  ///< Wall-clock run length.
  /// Arrival rate (requests/s) when the diurnal profile is at its peak.
  double peak_rps = 50.0;
  /// Simulated days compressed into duration_s — the generator sweeps the
  /// profile over this many days, so one run sees night troughs and both
  /// commute rushes.
  int sim_days = 1;
  uint64_t seed = 17;
  /// Closed-loop back-pressure: at most this many requests in flight; the
  /// generator harvests the oldest before issuing past the cap.
  int max_outstanding = 256;
  /// Per-request deadline forwarded to Submit (<0 = service default).
  double deadline_ms = -1.0;
  /// Cooperative cancellation (SIGINT/SIGTERM drain): when set and true, the
  /// generator stops issuing and harvests what is outstanding.
  const std::atomic<bool>* cancel = nullptr;
};

/// Outcome of one load-generation run, classified from the request futures
/// themselves (so the report cross-checks the serve.* counters).
struct LoadGenReport {
  int64_t issued = 0;     ///< == completed + shed + timed_out + errored.
  int64_t completed = 0;  ///< Future resolved with a prediction.
  int64_t shed = 0;       ///< ShedError (admission control).
  int64_t timed_out = 0;  ///< DeadlineError (expired in queue or in flight).
  int64_t errored = 0;    ///< Anything else (should stay 0).
  double wall_s = 0.0;
  /// Completed-request latency percentiles, from the serve.latency_ms
  /// histogram delta over this run (obs::HistogramPercentile).
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double shed_rate() const {
    return issued == 0 ? 0.0 : static_cast<double>(shed) / issued;
  }
};

/// Replays `city`'s diurnal demand curve as a Poisson arrival process against
/// `service` for `tenant`: the instantaneous rate is peak_rps scaled by
/// City::ProfileAt normalized to its peak over the simulated span, with
/// sim_days of profile compressed into duration_s of wall time. Requests
/// cycle through `pool` (held-out batches matching the tenant's grid).
/// Blocks until the run finishes and every issued future resolves.
LoadGenReport RunLoadGen(ForecastService& service, const std::string& tenant,
                         const std::vector<data::Batch>& pool,
                         const sim::City& city, const LoadGenOptions& options);

}  // namespace musenet::serve

#endif  // MUSENET_SERVE_LOADGEN_H_
