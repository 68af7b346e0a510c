#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <thread>

namespace musebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void WaitUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 300'000;
  const int64_t sleep_ns = due_ns - kSpinNs - NowNs();
  if (sleep_ns > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
  }
  while (NowNs() < due_ns) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (std::isinf(values[lo]) || std::isinf(values[hi])) {
    return frac < 0.5 ? values[lo] : values[hi];
  }
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void SignalReady() {
  std::printf("ready\n");
  std::fflush(stdout);
}

bool WaitForRound() {
  std::string line;
  return static_cast<bool>(std::getline(std::cin, line)) && line == "round";
}

void SignalRoundDone() {
  std::printf("done\n");
  std::fflush(stdout);
}

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    values_[key] = argv[i + 1];
  }
}

std::string Flags::Get(const std::string& key,
                       const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int64_t Flags::GetInt(const std::string& key, int64_t fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : std::strtod(it->second.c_str(), nullptr);
}

int64_t SpanRecorder::Add(const std::string& name, int64_t start_ns,
                          int64_t end_ns, int64_t parent, int64_t rid) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, rid});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t SpanRecorder::Begin(const std::string& name, int64_t start_ns,
                            int64_t parent) {
  return Add(name, start_ns, start_ns, parent);
}

void SpanRecorder::End(int64_t index, int64_t end_ns) {
  if (!enabled_ || index < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end_ns;
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back((s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

void SpanRecorder::WriteJson(const std::string& path) const {
  if (!enabled_) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%lld,\"rid\":%lld}%s\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.rid),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  std::fclose(f);
}

namespace {

template <typename Map>
auto ValueOr(const Map& map, const std::string& key,
             typename Map::mapped_type fallback) {
  auto it = map.find(key);
  return it == map.end() ? fallback : it->second;
}

}  // namespace

int64_t RegistryDelta::Counter(const std::string& name) const {
  return ValueOr(after_.counters, name, 0) -
         ValueOr(before_.counters, name, 0);
}

int64_t RegistryDelta::HistogramCount(const std::string& name) const {
  const musenet::obs::MetricsSnapshot::HistogramData empty;
  return ValueOr(after_.histograms, name, empty).total -
         ValueOr(before_.histograms, name, empty).total;
}

double RegistryDelta::HistogramSum(const std::string& name) const {
  const musenet::obs::MetricsSnapshot::HistogramData empty;
  return ValueOr(after_.histograms, name, empty).sum -
         ValueOr(before_.histograms, name, empty).sum;
}

void PartResult::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
}

void PartResult::Print() const {
  for (const std::string& e : errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  bool first = true;
  for (const auto& [name, value] : metrics) {
    // JSON has no NaN/Inf; a metric that could not be measured is omitted
    // and the wrapper reports the run as incorrect.
    if (!std::isfinite(value)) continue;
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace musebench
