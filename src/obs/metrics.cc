#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>

namespace musenet::obs {

namespace internal {

int ThisThreadShard() {
  static std::atomic<int> next{0};
  thread_local const int shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

}  // namespace internal

using internal::kShards;
using internal::Shard;

// --- Counter -----------------------------------------------------------------

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

// --- Gauge -------------------------------------------------------------------

uint64_t Gauge::Bits(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double Gauge::FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double Gauge::Value() const {
  return FromBits(bits_.load(std::memory_order_relaxed));
}

void Gauge::Add(double delta) {
  uint64_t observed = bits_.load(std::memory_order_relaxed);
  while (!bits_.compare_exchange_weak(observed,
                                      Bits(FromBits(observed) + delta),
                                      std::memory_order_relaxed)) {
  }
}

void Gauge::KeepMax(double candidate) {
  uint64_t observed = bits_.load(std::memory_order_relaxed);
  while (FromBits(observed) < candidate &&
         !bits_.compare_exchange_weak(observed, Bits(candidate),
                                      std::memory_order_relaxed)) {
  }
}

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(static_cast<size_t>(kShards) * (bounds_.size() + 1)),
      exemplar_ids_(new std::atomic<int64_t>[bounds_.size() + 1]),
      exemplar_value_bits_(new std::atomic<int64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    exemplar_ids_[i].store(-1, std::memory_order_relaxed);
    exemplar_value_bits_[i].store(0, std::memory_order_relaxed);
  }
}

size_t Histogram::BucketOf(double value) const {
  return static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
}

void Histogram::Observe(double value, int64_t exemplar_id) {
  const size_t bucket = BucketOf(value);
  int64_t value_bits;
  std::memcpy(&value_bits, &value, sizeof(value_bits));
  exemplar_value_bits_[bucket].store(value_bits, std::memory_order_relaxed);
  exemplar_ids_[bucket].store(exemplar_id, std::memory_order_relaxed);
  Observe(value);
}

void Histogram::Observe(double value) {
  const size_t bucket = BucketOf(value);
  const size_t stride = bounds_.size() + 1;
  const int shard = internal::ThisThreadShard();
  counts_[static_cast<size_t>(shard) * stride + bucket].value.fetch_add(
      1, std::memory_order_relaxed);
  // Sum is a CAS loop over double bits (no atomic<double>::fetch_add until
  // C++20 libstdc++ catches up); contention is spread by the shard index.
  std::atomic<int64_t>& sum = sum_bits_[shard].value;
  int64_t observed = sum.load(std::memory_order_relaxed);
  for (;;) {
    double current;
    std::memcpy(&current, &observed, sizeof(current));
    const double updated = current + value;
    int64_t updated_bits;
    std::memcpy(&updated_bits, &updated, sizeof(updated_bits));
    if (sum.compare_exchange_weak(observed, updated_bits,
                                  std::memory_order_relaxed)) {
      break;
    }
  }
}

int64_t Histogram::TotalCount() const {
  int64_t total = 0;
  for (const Shard& shard : counts_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const Shard& shard : sum_bits_) {
    const int64_t bits = shard.value.load(std::memory_order_relaxed);
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    total += value;
  }
  return total;
}

std::vector<int64_t> Histogram::BucketCounts() const {
  const size_t stride = bounds_.size() + 1;
  std::vector<int64_t> merged(stride, 0);
  for (int shard = 0; shard < kShards; ++shard) {
    for (size_t bucket = 0; bucket < stride; ++bucket) {
      merged[bucket] +=
          counts_[static_cast<size_t>(shard) * stride + bucket].value.load(
              std::memory_order_relaxed);
    }
  }
  return merged;
}

std::vector<int64_t> Histogram::ExemplarIds() const {
  std::vector<int64_t> ids(bounds_.size() + 1);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = exemplar_ids_[i].load(std::memory_order_relaxed);
  }
  return ids;
}

std::vector<double> Histogram::ExemplarValues() const {
  std::vector<double> values(bounds_.size() + 1);
  for (size_t i = 0; i < values.size(); ++i) {
    const int64_t bits = exemplar_value_bits_[i].load(std::memory_order_relaxed);
    std::memcpy(&values[i], &bits, sizeof(values[i]));
  }
  return values;
}

void Histogram::Reset() {
  for (Shard& shard : counts_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
  for (Shard& shard : sum_bits_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    exemplar_ids_[i].store(-1, std::memory_order_relaxed);
    exemplar_value_bits_[i].store(0, std::memory_order_relaxed);
  }
}

// --- Registry ----------------------------------------------------------------

namespace {

/// Interned instruments, heap-owned so element addresses are stable across
/// registration — which is what lets hot paths cache the references.
struct RegistryState {
  std::mutex mu;
  std::map<std::string, Counter*> counters;
  std::map<std::string, Gauge*> gauges;
  std::map<std::string, Histogram*> histograms;
  std::deque<std::unique_ptr<Counter>> counter_storage;
  std::deque<std::unique_ptr<Gauge>> gauge_storage;
  std::deque<std::unique_ptr<Histogram>> histogram_storage;
};

RegistryState& State() {
  static RegistryState* state = new RegistryState();  // Leaked singleton.
  return *state;
}

}  // namespace

Registry& Registry::Instance() {
  static Registry* registry = new Registry();
  return *registry;
}

Counter& Registry::GetCounter(const std::string& name) {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.counters.find(name);
  if (it != state.counters.end()) return *it->second;
  state.counter_storage.emplace_back(new Counter());
  Counter* fresh = state.counter_storage.back().get();
  state.counters.emplace(name, fresh);
  return *fresh;
}

Gauge& Registry::GetGauge(const std::string& name) {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.gauges.find(name);
  if (it != state.gauges.end()) return *it->second;
  state.gauge_storage.emplace_back(new Gauge());
  Gauge* fresh = state.gauge_storage.back().get();
  state.gauges.emplace(name, fresh);
  return *fresh;
}

Histogram& Registry::GetHistogram(const std::string& name,
                                  const std::vector<double>& bounds) {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.histograms.find(name);
  if (it != state.histograms.end()) return *it->second;
  state.histogram_storage.emplace_back(new Histogram(bounds));
  Histogram* fresh = state.histogram_storage.back().get();
  state.histograms.emplace(name, fresh);
  return *fresh;
}

MetricsSnapshot Registry::Snapshot() const {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : state.counters) {
    snapshot.counters.emplace(name, counter->Value());
  }
  for (const auto& [name, gauge] : state.gauges) {
    snapshot.gauges.emplace(name, gauge->Value());
  }
  for (const auto& [name, histogram] : state.histograms) {
    MetricsSnapshot::HistogramData data;
    data.bounds = histogram->bounds();
    data.counts = histogram->BucketCounts();
    data.total = histogram->TotalCount();
    data.sum = histogram->Sum();
    data.exemplar_ids = histogram->ExemplarIds();
    data.exemplar_values = histogram->ExemplarValues();
    snapshot.histograms.emplace(name, std::move(data));
  }
  return snapshot;
}

void Registry::ResetCountersAndHistograms() {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  for (const auto& [name, counter] : state.counters) counter->Reset();
  for (const auto& [name, histogram] : state.histograms) histogram->Reset();
}

Counter& GetCounter(const std::string& name) {
  return Registry::Instance().GetCounter(name);
}

Gauge& GetGauge(const std::string& name) {
  return Registry::Instance().GetGauge(name);
}

Histogram& GetHistogram(const std::string& name,
                        const std::vector<double>& bounds) {
  return Registry::Instance().GetHistogram(name, bounds);
}

const std::vector<double>& QueueDepthBuckets() {
  static const std::vector<double>* buckets = [] {
    auto* b = new std::vector<double>();
    b->push_back(0.0);
    for (double edge = 1.0; edge <= 4096.0; edge *= 2.0) b->push_back(edge);
    return b;
  }();
  return *buckets;
}

double HistogramPercentile(const MetricsSnapshot::HistogramData& histogram,
                           double q) {
  // Empty histogram: "no data" is NaN, not 0 — a 0 here reads as "p99 was
  // instantaneous" in a report, which is a lie. Callers that format
  // human-facing output guard this (loadgen prints 0 for an empty run).
  if (histogram.total <= 0 || histogram.counts.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(histogram.total);
  double below = 0.0;
  for (size_t i = 0; i < histogram.counts.size(); ++i) {
    const double count = static_cast<double>(histogram.counts[i]);
    if (below + count >= rank || i + 1 == histogram.counts.size()) {
      if (i >= histogram.bounds.size()) {
        // Overflow bucket: no upper edge to interpolate toward, so every
        // rank landing here clamps to the last finite bound (NaN when the
        // histogram has no finite bounds at all — pure-overflow data gives
        // no usable estimate).
        return histogram.bounds.empty()
                   ? std::numeric_limits<double>::quiet_NaN()
                   : histogram.bounds.back();
      }
      const double hi = histogram.bounds[i];
      const double lo = i == 0 ? 0.0 : histogram.bounds[i - 1];
      // Linear interpolation inside the bucket. When all mass sits in this
      // single bucket, below == 0 and count == total, so frac == q and the
      // estimate walks the bucket's width with q instead of pinning to an
      // edge.
      const double frac = count > 0.0 ? (rank - below) / count : 1.0;
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
    below += count;
  }
  return histogram.bounds.empty() ? std::numeric_limits<double>::quiet_NaN()
                                  : histogram.bounds.back();
}

const std::vector<double>& LatencyBucketsMs() {
  // 0.01ms .. ~164s, factor 2: 24 buckets + overflow.
  static const std::vector<double>* buckets = [] {
    auto* b = new std::vector<double>();
    double edge = 0.01;
    for (int i = 0; i < 24; ++i) {
      b->push_back(edge);
      edge *= 2.0;
    }
    return b;
  }();
  return *buckets;
}

// --- Export ------------------------------------------------------------------

namespace {

/// Shortest round-trip formatting of a double (%.17g trimmed would jitter;
/// %g at 17 significant digits round-trips and is deterministic for
/// identical bit patterns — which the substrate's determinism contract
/// guarantees across thread counts).
std::string JsonDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricsToJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + std::to_string(value);
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + JsonDouble(value);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, data] : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": {\"total\": " + std::to_string(data.total) +
           ", \"sum\": " + JsonDouble(data.sum) + ", \"bounds\": [";
    for (size_t i = 0; i < data.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonDouble(data.bounds[i]);
    }
    out += "], \"counts\": [";
    for (size_t i = 0; i < data.counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(data.counts[i]);
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted
/// convention ("serve.taxi-b.shed") maps dots and every other outlaw
/// character to '_'. Deterministic, so scrape series names are stable.
std::string PrometheusName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

std::string MetricsToPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  char buf[160];
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " counter\n";
    std::snprintf(buf, sizeof(buf), "%s %lld\n", prom.c_str(),
                  static_cast<long long>(value));
    out += buf;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " gauge\n";
    std::snprintf(buf, sizeof(buf), "%s %.17g\n", prom.c_str(), value);
    out += buf;
  }
  for (const auto& [name, data] : snapshot.histograms) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " histogram\n";
    int64_t cumulative = 0;
    for (size_t i = 0; i < data.counts.size(); ++i) {
      cumulative += data.counts[i];
      if (i < data.bounds.size()) {
        std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"%.17g\"} %lld",
                      prom.c_str(), data.bounds[i],
                      static_cast<long long>(cumulative));
      } else {
        std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"+Inf\"} %lld",
                      prom.c_str(), static_cast<long long>(cumulative));
      }
      out += buf;
      // OpenMetrics-style exemplar: the id of the last observation that
      // landed in this bucket, resolvable against the trace file's request
      // spans ("rid" args).
      if (i < data.exemplar_ids.size() && data.exemplar_ids[i] >= 0) {
        std::snprintf(buf, sizeof(buf), " # {request_id=\"%lld\"} %.17g",
                      static_cast<long long>(data.exemplar_ids[i]),
                      i < data.exemplar_values.size() ? data.exemplar_values[i]
                                                      : 0.0);
        out += buf;
      }
      out.push_back('\n');
    }
    std::snprintf(buf, sizeof(buf), "%s_sum %.17g\n%s_count %lld\n",
                  prom.c_str(), data.sum, prom.c_str(),
                  static_cast<long long>(data.total));
    out += buf;
  }
  return out;
}

void DumpMetrics(std::FILE* out) {
  const MetricsSnapshot snapshot = Registry::Instance().Snapshot();
  size_t width = 8;
  for (const auto& [name, value] : snapshot.counters) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, value] : snapshot.gauges) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, data] : snapshot.histograms) {
    width = std::max(width, name.size());
  }
  const int w = static_cast<int>(width);
  std::fprintf(out, "--- metrics ---\n");
  for (const auto& [name, value] : snapshot.counters) {
    std::fprintf(out, "%-*s  %lld\n", w, name.c_str(),
                 static_cast<long long>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::fprintf(out, "%-*s  %.6g\n", w, name.c_str(), value);
  }
  for (const auto& [name, data] : snapshot.histograms) {
    std::fprintf(out, "%-*s  count=%lld sum=%.6g mean=%.6g\n", w,
                 name.c_str(), static_cast<long long>(data.total), data.sum,
                 data.total > 0 ? data.sum / static_cast<double>(data.total)
                                : 0.0);
  }
}

}  // namespace musenet::obs
