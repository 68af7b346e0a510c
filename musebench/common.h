// Shared plumbing of the benchmark binary: clocks, exact percentiles, the
// benchmark's own span recorder, registry deltas and the one-line JSON result
// each part prints. Everything here measures the library from outside; no
// span is recorded inside src/.
#ifndef MUSEBENCH_COMMON_H_
#define MUSEBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace musebench {

/// Steady-clock nanoseconds (the benchmark's own clock).
int64_t NowNs();

/// Waits until `due_ns`: sleeps until shortly before it, then spins. A plain
/// sleep would add the host's timer overshoot (milliseconds on a noisy VM)
/// to every open-loop arrival; a pure spin would take a core from the
/// system under test.
void WaitUntil(int64_t due_ns);

/// q-quantile (q in [0, 1]) of `values` by linear interpolation between
/// order statistics; NaN when empty. Takes a copy: callers keep their order.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Round protocol between a part and musebench/run.py, which interleaves
/// the parts' rounds: after its set-up a part calls SignalReady ("ready" on
/// stdout); WaitForRound then blocks until the wrapper sends "round" on
/// stdin, and returns false at end of input, after which the part prints its
/// result. SignalRoundDone answers "done".
void SignalReady();
bool WaitForRound();
void SignalRoundDone();

/// Command-line flags of one part: `--key value` pairs.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string Get(const std::string& key, const std::string& fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// One span of the benchmark's own trace: a call into a layer's public
/// function, timed by the caller.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< Index of the enclosing span, -1 = root.
  int64_t rid = -1;     ///< Request id (serve spans), -1 = none.
};

/// In-memory span store, written out once when the run ends. Disabled
/// recorders drop everything, so untraced runs pay one branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Appends a span and returns its index (-1 when disabled).
  int64_t Add(const std::string& name, int64_t start_ns, int64_t end_ns,
              int64_t parent = -1, int64_t rid = -1);
  /// Opens a span whose end is set later by End; returns its index (-1 when
  /// disabled). For spans that parent others.
  int64_t Begin(const std::string& name, int64_t start_ns, int64_t parent = -1);
  void End(int64_t index, int64_t end_ns);
  /// Calls `fn(index, span)` for every span, in insertion order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      fn(static_cast<int64_t>(i), spans_[i]);
    }
  }
  /// Durations in milliseconds of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Writes the spans as a JSON array of {name, start_ns, end_ns, parent,
  /// rid} objects. No-op when disabled.
  void WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< Guarded by mu_.
};

/// Times one call into a layer and records it on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, int64_t parent = -1)
      : recorder_(recorder), name_(name), parent_(parent), start_(NowNs()) {}
  ~ScopedSpan() {
    if (recorder_.enabled()) recorder_.Add(name_, start_, NowNs(), parent_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  const char* name_;
  int64_t parent_;
  int64_t start_;
};

/// Difference of two registry snapshots: the program's own counters and
/// histograms over an interval.
class RegistryDelta {
 public:
  RegistryDelta() : before_(musenet::obs::Registry::Instance().Snapshot()) {}
  /// Freezes the interval's end.
  void Stop() { after_ = musenet::obs::Registry::Instance().Snapshot(); }
  int64_t Counter(const std::string& name) const;
  int64_t HistogramCount(const std::string& name) const;
  double HistogramSum(const std::string& name) const;

 private:
  musenet::obs::MetricsSnapshot before_;
  musenet::obs::MetricsSnapshot after_;
};

/// The single JSON line a part prints last on stdout.
struct PartResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;  ///< Failed output checks.

  void Check(bool ok, const std::string& what);
  /// Prints the result line (and each failed check on stderr).
  void Print() const;
};

}  // namespace musebench

#endif  // MUSEBENCH_COMMON_H_
