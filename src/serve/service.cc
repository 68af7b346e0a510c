#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/fault_injector.h"
#include "util/stopwatch.h"

namespace musenet::serve {

namespace ts = musenet::tensor;

Status ValidateServiceOptions(const ServiceOptions& options) {
  constexpr double kNoMax = std::numeric_limits<double>::max();
  const struct { const char* field; double value, min, max; } checks[] = {
      {"max_batch", static_cast<double>(options.max_batch), 1.0, kNoMax},
      {"max_queue", static_cast<double>(options.max_queue), 1.0, kNoMax},
      {"deadline_ms", options.deadline_ms, 0.0, kMaxDeadlineMs},
      {"rate_rps", options.rate_rps, 0.0, kNoMax}};
  for (const auto& [field, value, min, max] : checks) {
    if (std::isfinite(value) && value >= min && value <= max) continue;
    std::ostringstream message;
    message << field << " must be finite and >= " << min;
    if (max != kNoMax) message << " and <= " << max;
    message << ", got " << value;
    return Status::InvalidArgument(message.str());
  }
  return Status::OK();
}

ForecastService::ForecastService(ModelRegistry& registry,
                                 ServiceOptions options)
    : registry_(registry), options_(options) {
  const Status valid = ValidateServiceOptions(options_);
  MUSE_CHECK(valid.ok()) << valid.ToString();
  for (const std::string& name : registry_.TenantNames()) {
    auto state = std::make_unique<TenantState>();
    state->name = name;
    if (options_.monitor_quality) {
      state->quality =
          std::make_unique<QualityMonitor>(name, options_.quality);
    }
    TenantState* raw = state.get();
    tenants_.emplace(name, std::move(state));
    raw->dispatcher = std::thread([this, raw] { DispatchLoop(*raw); });
  }
}

ForecastService::~ForecastService() { Drain(); }

// TimeOut and Shed count before fulfilling the promise, for the same reason
// DispatchLoop does: the serve.* counters must already reflect a request by
// the time its future resolves, or a reconciliation snapshot taken right
// after future.get() can be off by the in-flight request.
void ForecastService::TimeOut(Pending&& pending) {
  obs::GetCounter("serve.timed_out").Add();
  obs::FlightRecorder::Instance().Record("serve.deadline_expired",
                                        pending.request_id);
  pending.promise.set_exception(std::make_exception_ptr(
      DeadlineError("request deadline passed before completion")));
}

void ForecastService::Shed(TenantState& tenant, Pending&& pending,
                           const char* reason) {
  obs::GetCounter("serve.shed").Add();
  obs::GetCounter("serve." + tenant.name + ".shed").Add();
  obs::FlightRecorder::Instance().Record("serve.shed", pending.request_id, 0,
                                        reason);
  pending.promise.set_exception(std::make_exception_ptr(
      ShedError(std::string("request shed: ") + reason)));
}

std::future<tensor::Tensor> ForecastService::Submit(const std::string& tenant,
                                                    data::Batch request,
                                                    double deadline_ms) {
  MUSE_CHECK(request.batch_size() == 1)
      << "ForecastService::Submit takes single-grid requests; got batch "
      << request.batch_size();
  obs::GetCounter("serve.requests").Add();

  Pending pending;
  pending.batch = std::move(request);
  // The rid is the trace-correlation key: it names this request in the
  // serve.request instant, the serve.batch / infer.run span args, and the
  // latency-histogram exemplar, so an outlier bucket resolves to a concrete
  // request's spans in the trace.
  pending.request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  obs::TraceInstant("serve.request", "rid", pending.request_id);
  pending.enqueue_ns = util::MonotonicNowNanos();
  const double effective_deadline = std::min(
      deadline_ms < 0.0 ? options_.deadline_ms : deadline_ms, kMaxDeadlineMs);
  if (effective_deadline > 0.0) {
    pending.deadline_ns =
        pending.enqueue_ns + static_cast<int64_t>(effective_deadline * 1e6);
  }
  std::future<tensor::Tensor> future = pending.promise.get_future();

  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    pending.promise.set_exception(std::make_exception_ptr(
        std::runtime_error("unknown tenant '" + tenant + "'")));
    return future;
  }
  TenantState& state = *it->second;
  if (draining_.load(std::memory_order_acquire)) {
    pending.promise.set_exception(std::make_exception_ptr(
        std::runtime_error("ForecastService is draining")));
    return future;
  }

  {
    std::lock_guard<std::mutex> lock(state.mu);
    // 1. Token bucket: refill continuously, spend one token per admission.
    if (options_.rate_rps > 0.0) {
      const double burst = options_.burst > 0.0
                               ? options_.burst
                               : std::max(1.0, options_.rate_rps);
      if (state.refill_ns == 0) {
        state.tokens = burst;  // First request finds a full bucket.
      } else {
        const double elapsed_s =
            static_cast<double>(pending.enqueue_ns - state.refill_ns) / 1e9;
        state.tokens =
            std::min(burst, state.tokens + elapsed_s * options_.rate_rps);
      }
      state.refill_ns = pending.enqueue_ns;
      if (state.tokens < 1.0) {
        Shed(state, std::move(pending), "rate limit");
        return future;
      }
      state.tokens -= 1.0;
    }

    // 2. Bounded queue.
    if (static_cast<int>(state.queue.size()) >= options_.max_queue) {
      if (options_.shed_policy == ShedPolicy::kRejectNewest) {
        Shed(state, std::move(pending), "queue full");
        return future;
      }
      Pending oldest = std::move(state.queue.front());
      state.queue.pop_front();
      Shed(state, std::move(oldest), "displaced by newer request");
    }

    // 3. Deadline-aware admission: don't queue work that is already
    // hopeless — if one batch's expected service time blows the deadline,
    // shed now instead of timing out later.
    if (pending.deadline_ns > 0) {
      const int64_t ewma = state.ewma_batch_ns.load(std::memory_order_relaxed);
      if (ewma > 0 && pending.enqueue_ns + ewma > pending.deadline_ns) {
        Shed(state, std::move(pending), "deadline unmeetable");
        return future;
      }
    }

    state.queue.push_back(std::move(pending));
    obs::GetHistogram("serve.queue_depth", obs::QueueDepthBuckets())
        .Observe(static_cast<double>(state.queue.size()));
  }
  obs::GetCounter("serve.admitted").Add();
  obs::GetCounter("serve." + state.name + ".admitted").Add();
  state.cv.notify_one();
  return future;
}

void ForecastService::DispatchLoop(TenantState& tenant) {
  auto& latency_hist =
      obs::GetHistogram("serve.latency_ms", obs::LatencyBucketsMs());
  auto& batch_size_hist =
      obs::GetHistogram("serve.batch_size", {1, 2, 4, 8, 16, 32, 64});
  auto& completed = obs::GetCounter("serve.completed");

  for (;;) {
    std::vector<Pending> group;
    {
      std::unique_lock<std::mutex> lock(tenant.mu);
      tenant.cv.wait(lock, [this, &tenant] {
        return draining_.load(std::memory_order_acquire) ||
               !tenant.queue.empty();
      });
      if (tenant.queue.empty()) return;  // Draining with a dry queue.
      // Work-conserving: batch what is queued now, up to max_batch. Expired
      // requests complete with DeadlineError instead of taking a slot.
      const int64_t now_ns = util::MonotonicNowNanos();
      while (!tenant.queue.empty() &&
             static_cast<int>(group.size()) < options_.max_batch) {
        Pending p = std::move(tenant.queue.front());
        tenant.queue.pop_front();
        if (p.deadline_ns > 0 && now_ns > p.deadline_ns) {
          TimeOut(std::move(p));
          continue;
        }
        group.push_back(std::move(p));
      }
    }
    if (group.empty()) continue;

    const int64_t n = static_cast<int64_t>(group.size());
    // The batch span carries the first member's rid so a trace search for
    // one request finds the batch that served it (and, via the engine's rid
    // propagation, the replay lanes underneath).
    obs::ScopedSpan span("serve.batch", "size", n, "rid",
                         group[0].request_id);
    const int64_t start_ns = util::MonotonicNowNanos();

    // The snapshot pins this batch's plan: a Swap() committing mid-replay
    // retires the old plan only after this reference drops, and the next
    // batch's Acquire sees the new plan.
    std::shared_ptr<const ServingPlan> plan = registry_.Acquire(tenant.name);
    if (plan == nullptr) {
      for (Pending& p : group) {
        p.promise.set_exception(std::make_exception_ptr(std::runtime_error(
            "no active plan for tenant '" + tenant.name + "'")));
      }
      continue;
    }

    const double slow_ms = util::FaultInjector::Instance().TakeSlowReplay();
    if (slow_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(slow_ms));
    }

    data::Batch merged;  // A batch of one replays its request in place.
    if (n > 1) {
      // Each member's rows are copied once, straight into the merged tensor.
      const auto merge = [&group, n](ts::Tensor data::Batch::*field) {
        const ts::Shape& one = (group[0].batch.*field).shape();
        std::vector<int64_t> dims = one.dims();
        dims[0] = n;
        ts::Tensor out = ts::Tensor::Uninitialized(ts::Shape(std::move(dims)));
        const int64_t row = one.num_elements();
        for (int64_t i = 0; i < n; ++i) {
          const ts::Tensor& part = group[static_cast<size_t>(i)].batch.*field;
          MUSE_CHECK(part.shape() == one) << "coalesced shapes differ";
          std::copy_n(part.data(), row, out.mutable_data() + i * row);
        }
        return out;
      };
      merged.closeness = merge(&data::Batch::closeness);
      merged.period = merge(&data::Batch::period);
      merged.trend = merge(&data::Batch::trend);
      merged.target = merge(&data::Batch::target);
      for (const Pending& p : group) {
        merged.target_indices.insert(merged.target_indices.end(),
                                     p.batch.target_indices.begin(),
                                     p.batch.target_indices.end());
      }
    }

    plan->engine->set_trace_request_id(group[0].request_id);
    ts::Tensor prediction =
        plan->engine->Predict(n == 1 ? group[0].batch : merged);
    plan->engine->set_trace_request_id(-1);
    const int64_t done_ns = util::MonotonicNowNanos();

    // EWMA of batch service time feeds deadline-aware admission.
    const int64_t batch_ns = done_ns - start_ns;
    const int64_t prev = tenant.ewma_batch_ns.load(std::memory_order_relaxed);
    tenant.ewma_batch_ns.store(prev == 0 ? batch_ns : (prev * 7 + batch_ns) / 8,
                               std::memory_order_relaxed);

    for (int64_t i = 0; i < n; ++i) {
      Pending& p = group[static_cast<size_t>(i)];
      if (p.deadline_ns > 0 && done_ns > p.deadline_ns) {
        TimeOut(std::move(p));
        continue;
      }
      ts::Tensor slice = n == 1 ? prediction : ts::Slice(prediction, 0, i, 1);
      // Count and observe BEFORE fulfilling the promise: a caller that
      // snapshots the counters right after future.get() returns must see
      // this request in serve.completed (admitted == completed + timed_out
      // is the reconciliation the bench and CI smoke assert on).
      completed.Add();
      const double millis = static_cast<double>(done_ns - p.enqueue_ns) / 1e6;
      // The rid rides along as the bucket's exemplar: a /metrics scrape of
      // an outlier latency bucket names a request whose spans are in the
      // trace.
      latency_hist.Observe(millis, p.request_id);
      if (tenant.quality != nullptr && p.batch.target.num_elements() > 0 &&
          p.batch.target.num_elements() == slice.num_elements()) {
        tenant.quality->Observe(slice.data(), p.batch.target.data(),
                                slice.num_elements());
      }
      p.promise.set_value(std::move(slice));
    }
    batch_size_hist.Observe(static_cast<double>(n));
  }
}

void ForecastService::Drain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    for (auto& [name, state] : tenants_) {
      if (state->dispatcher.joinable()) state->dispatcher.join();
    }
    return;
  }
  for (auto& [name, state] : tenants_) {
    // A dispatcher checks draining_ under its tenant mutex before it waits.
    // Notifying under that mutex keeps the notify from landing between the
    // check and the wait, where it would be lost and the join below would
    // hang.
    std::lock_guard<std::mutex> lock(state->mu);
    state->cv.notify_all();
  }
  for (auto& [name, state] : tenants_) {
    if (state->dispatcher.joinable()) state->dispatcher.join();
  }
}

ForecastService::TenantRuntime ForecastService::runtime(
    const std::string& tenant) const {
  TenantRuntime runtime;
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return runtime;
  const TenantState& state = *it->second;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    runtime.queue_depth = static_cast<int64_t>(state.queue.size());
    if (options_.rate_rps > 0.0) {
      const double burst = options_.burst > 0.0
                               ? options_.burst
                               : std::max(1.0, options_.rate_rps);
      // Same continuous-refill formula Submit applies, so the reported fill
      // reflects tokens accrued since the last admission, not just the
      // balance it left behind.
      double tokens = state.tokens;
      if (state.refill_ns == 0) {
        tokens = burst;  // No request yet: a first one finds a full bucket.
      } else {
        const double elapsed_s =
            static_cast<double>(util::MonotonicNowNanos() - state.refill_ns) /
            1e9;
        tokens = std::min(burst, tokens + elapsed_s * options_.rate_rps);
      }
      runtime.token_fill = tokens / burst;
    } else {
      runtime.token_fill = 1.0;  // Unlimited: always "full".
    }
  }
  runtime.ewma_batch_ms =
      static_cast<double>(
          state.ewma_batch_ns.load(std::memory_order_relaxed)) /
      1e6;
  runtime.quality_enabled = state.quality != nullptr;
  if (state.quality != nullptr) runtime.quality = state.quality->stats();
  return runtime;
}

}  // namespace musenet::serve
