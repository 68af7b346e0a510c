#ifndef MUSENET_INFER_SESSION_H_
#define MUSENET_INFER_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "data/dataset.h"
#include "eval/forecaster.h"
#include "infer/engine.h"
#include "tensor/tensor.h"

namespace musenet::infer {

/// Thrown into a request's future when its deadline passed before the
/// dispatcher could complete it (counter `infer.requests_timed_out`).
class DeadlineExceededError : public std::runtime_error {
 public:
  explicit DeadlineExceededError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Batching policy of an InferenceSession.
struct SessionOptions {
  /// Largest coalesced batch. Requests beyond this wait for the next batch.
  int max_batch = 8;
  /// How long the dispatcher holds an under-full batch open for stragglers
  /// before running it. 0 runs every request immediately (no coalescing).
  double max_wait_ms = 2.0;
  /// Engine configuration (plan-time specialization, accuracy gate) —
  /// forwarded to the session's Engine.
  EngineOptions engine;
};

/// Batched serving harness on top of the inference engine.
///
/// Submit enqueues one single-grid request and returns a future; a dispatch
/// thread coalesces queued requests into batches (up to max_batch, waiting
/// at most max_wait_ms for the batch to fill), runs the engine once per
/// batch, and slices the prediction back out per request. Coalescing turns
/// B single-sample runs into one batch-B run, which the engine's plan cache
/// compiles once per distinct size.
///
/// Observability: counters `infer.requests` / `infer.batches`, histograms
/// `infer.batch_size` and `infer.latency_ms` (enqueue-to-completion), and an
/// `infer.batch` span per dispatched batch.
class InferenceSession {
 public:
  explicit InferenceSession(eval::Forecaster& model,
                            SessionOptions options = {});
  ~InferenceSession();

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Enqueues a single-sample request (batch_size() == 1). The future
  /// resolves to the scaled [1, 2, H, W] prediction. `deadline_ms` > 0 bounds
  /// enqueue-to-completion time: a request whose deadline passes before the
  /// dispatcher completes it gets DeadlineExceededError instead of a
  /// prediction (an expired request never occupies a batch slot). 0 = no
  /// deadline.
  std::future<tensor::Tensor> Submit(data::Batch request,
                                     double deadline_ms = 0.0);

  /// Drains the queue, stops the dispatch thread, and rejects later
  /// Submits. Idempotent; the destructor calls it.
  void Shutdown();

  Engine& engine() { return engine_; }

 private:
  struct Pending {
    data::Batch batch;
    std::promise<tensor::Tensor> promise;
    int64_t request_id = 0;   ///< Session-unique trace-correlation id.
    int64_t enqueue_ns = 0;
    int64_t deadline_ns = 0;  ///< 0 = no deadline.
  };

  void DispatchLoop();

  Engine engine_;
  SessionOptions options_;
  /// Mints Pending::request_id, threading each request into its batch's
  /// infer.batch span, the engine replay spans underneath, and the
  /// infer.latency_ms exemplar.
  std::atomic<int64_t> next_request_id_{1};

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool shutdown_ = false;
  std::thread dispatcher_;
};

}  // namespace musenet::infer

#endif  // MUSENET_INFER_SESSION_H_
