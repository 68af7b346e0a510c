#ifndef MUSENET_SERVE_SERVICE_H_
#define MUSENET_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "serve/quality.h"
#include "serve/registry.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace musenet::serve {

/// Thrown into a request's future when admission control rejects it (queue
/// full, token bucket empty, or a deadline that cannot be met).
class ShedError : public std::runtime_error {
 public:
  explicit ShedError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown into a request's future when it expired in the queue: its deadline
/// passed before a dispatcher could run it.
class DeadlineError : public std::runtime_error {
 public:
  explicit DeadlineError(const std::string& what)
      : std::runtime_error(what) {}
};

/// What to do with an admitted backlog when a new request finds the tenant
/// queue full.
enum class ShedPolicy {
  /// Reject the incoming request (classic bounded-queue tail drop). Favors
  /// requests already queued — best when deadlines are loose.
  kRejectNewest,
  /// Shed the oldest queued request to make room. Favors fresh requests —
  /// best under tight deadlines, where the head of a long queue is stale
  /// anyway.
  kDropOldest,
};

/// Parses "reject", "oldest" or "drop-oldest"; InvalidArgument naming the
/// accepted names for anything else.
Result<ShedPolicy> ParseShedPolicy(const std::string& name);

/// Per-tenant admission and batching policy.
struct ServiceOptions {
  int max_batch = 8;        ///< Largest coalesced batch per tenant.
  double max_wait_ms = 2.0; ///< Straggler wait for an under-full batch.
  /// Bound on queued (admitted, not yet dispatched) requests per tenant.
  int max_queue = 64;
  /// Default request deadline (admission to completion); 0 = none. A
  /// Submit-time deadline overrides it.
  double deadline_ms = 0.0;
  ShedPolicy shed_policy = ShedPolicy::kRejectNewest;
  /// Token-bucket rate limit per tenant, requests/s; 0 = unlimited.
  double rate_rps = 0.0;
  /// Bucket capacity (burst size); <= 0 picks max(1, rate_rps).
  double burst = 0.0;
  /// Feed each completed prediction and its request's ground-truth-delayed
  /// label (Batch::target) into a per-tenant QualityMonitor, publishing
  /// serve.quality.<tenant>.* gauges. Off by default: the monitor costs one
  /// pass over the output grid per request.
  bool monitor_quality = false;
  QualityOptions quality;  ///< Monitor tuning when monitor_quality is set.
};

/// Multi-tenant forecast frontend: admission control and batched dispatch
/// over a ModelRegistry.
///
/// Each tenant gets a bounded queue, a token bucket and one dispatcher
/// thread that coalesces queued requests into batches (up to max_batch,
/// waiting at most max_wait_ms for stragglers), runs the engine once per
/// batch and slices the prediction back out per request. The engine is a
/// plan snapshot acquired per batch — so a hot-swap takes effect at the next
/// batch boundary, in-flight batches drain on the plan they started with,
/// and a request admitted after Swap() returns can never be served by the
/// old plan.
///
/// Admission (Submit) sheds synchronously, cheapest checks first:
///   1. token bucket empty                        -> ShedError
///   2. queue full (kRejectNewest)                -> ShedError
///      queue full (kDropOldest)                  -> oldest queued request
///                                                   sheds, newest admitted
///   3. deadline unmeetable (now + EWMA of batch
///      service time already past it)             -> ShedError
/// Queued requests whose deadline passes before dispatch complete with
/// DeadlineError instead of occupying a batch slot.
///
/// Observability: counters serve.{requests,admitted,shed,timed_out,
/// completed} (+ per-tenant serve.<name>.{admitted,shed}), histograms
/// serve.latency_ms (admission->completion, the SLO histogram),
/// serve.queue_depth (at admission) and serve.batch_size, a serve.request
/// instant per Submit and a serve.batch span per dispatched batch.
class ForecastService {
 public:
  ForecastService(ModelRegistry& registry, ServiceOptions options = {});
  ~ForecastService();

  ForecastService(const ForecastService&) = delete;
  ForecastService& operator=(const ForecastService&) = delete;

  /// Enqueues a single-grid request for `tenant`. The future resolves to the
  /// scaled [1, 2, H, W] prediction, or throws ShedError / DeadlineError /
  /// runtime_error (unknown tenant, shut down). `deadline_ms` < 0 uses the
  /// service default; 0 disables the deadline for this request.
  std::future<tensor::Tensor> Submit(const std::string& tenant,
                                     data::Batch request,
                                     double deadline_ms = -1.0);

  /// Stops admitting, runs every tenant queue dry (in-flight and queued
  /// requests complete normally; expired ones time out), joins the
  /// dispatchers. Idempotent; the destructor calls it.
  void Drain();

  ModelRegistry& registry() { return registry_; }
  const ServiceOptions& options() const { return options_; }

  /// Queued (admitted, undispatched) requests for `tenant` right now.
  int64_t queue_depth(const std::string& tenant) const;

  /// Point-in-time runtime state of one tenant, for /statusz.
  struct TenantRuntime {
    int64_t queue_depth = 0;      ///< Admitted, undispatched requests.
    double token_fill = 0.0;      ///< Token-bucket fill, 1.0 = full burst.
    double ewma_batch_ms = 0.0;   ///< EWMA batch service time.
    bool quality_enabled = false;
    QualityMonitor::Stats quality;  ///< Zero when quality_enabled is false.
  };
  /// Runtime state of `tenant`; all-defaults for an unknown tenant.
  TenantRuntime runtime(const std::string& tenant) const;

 private:
  struct Pending {
    data::Batch batch;
    std::promise<tensor::Tensor> promise;
    int64_t request_id = 0;   ///< Service-unique trace-correlation id.
    int64_t enqueue_ns = 0;
    int64_t deadline_ns = 0;  ///< 0 = none.
  };

  struct TenantState {
    std::string name;
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> queue;
    // Token bucket, guarded by mu. Tokens refill continuously at rate_rps.
    double tokens = 0.0;
    int64_t refill_ns = 0;
    /// EWMA of batch service time, for deadline-aware admission. Atomic so
    /// Submit reads it without taking the dispatch-side lock.
    std::atomic<int64_t> ewma_batch_ns{0};
    /// Forecast-quality monitor (nullptr unless options.monitor_quality).
    std::unique_ptr<QualityMonitor> quality;
    std::thread dispatcher;
  };

  void DispatchLoop(TenantState& tenant);

  /// Completes `pending` with DeadlineError and counts it.
  void TimeOut(Pending&& pending);

  /// Completes `pending` with ShedError and counts it (tenant-attributed).
  void Shed(TenantState& tenant, Pending&& pending, const char* reason);

  ModelRegistry& registry_;
  ServiceOptions options_;
  std::atomic<bool> draining_{false};
  /// Mints Pending::request_id. Service-scoped (not per-tenant) so a rid
  /// names exactly one request across every tenant's spans and exemplars.
  std::atomic<int64_t> next_request_id_{1};
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;
};

}  // namespace musenet::serve

#endif  // MUSENET_SERVE_SERVICE_H_
