// musebench: the benchmark binary. `musebench <part> --seed N ...`
// runs one part (serve, train, pipeline, host) and prints its JSON result
// line; musebench/run.py composes the parts into workloads.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "parts.h"

namespace musebench {

int RunHost() {
  PartResult result;
  // A noisy host shows up here: how far a 2 ms sleep overshoots.
  constexpr int kProbes = 200;
  std::vector<double> overshoot_ms;
  for (int i = 0; i < kProbes; ++i) {
    const int64_t t0 = NowNs();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    overshoot_ms.push_back((NowNs() - t0) / 1e6 - 2.0);
  }
  result.attempted = kProbes;
  result.metrics["host.sleep_overshoot_p50_ms"] = Quantile(overshoot_ms, 0.5);
  result.metrics["host.sleep_overshoot_p99_ms"] = Quantile(overshoot_ms, 0.99);
  result.metrics["host.sleep_overshoot_max_ms"] = Quantile(overshoot_ms, 1.0);
#if defined(__x86_64__)
  result.metrics["host.avx2"] = __builtin_cpu_supports("avx2") ? 1 : 0;
  result.metrics["host.avx512f"] = __builtin_cpu_supports("avx512f") ? 1 : 0;
#endif
  result.Print();
  return 0;
}

}  // namespace musebench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: musebench serve|train|pipeline|host --seed N "
                 "[--dir D] [--trace 0|1] [--seconds S (serve)] "
                 "[--shards N (train)]\n");
    return 2;
  }
  const std::string part = argv[1];
  const musebench::Flags flags(argc, argv, 2);
  if (part == "serve") return musebench::RunServe(flags);
  if (part == "train") return musebench::RunTrain(flags);
  if (part == "pipeline") return musebench::RunPipeline(flags);
  if (part == "host") return musebench::RunHost();
  std::fprintf(stderr, "unknown part '%s'\n", part.c_str());
  return 2;
}
