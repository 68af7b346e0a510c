#ifndef MUSENET_UTIL_BENCH_CONFIG_H_
#define MUSENET_UTIL_BENCH_CONFIG_H_

#include <cstdint>
#include <string>

namespace musenet {

/// Experiment scale shared by all benchmark binaries.
///
/// Training the full paper configuration (32×32 grid, 350 epochs, d=64,
/// k=128) on one CPU core is infeasible within a benchmark run, so every
/// experiment binary reads a scale from the `MUSE_BENCH_SCALE` environment
/// variable:
///   - "smoke": minimal — a seconds-long sanity pass.
///   - "default": the calibrated reproduction scale (minutes per table).
///   - "paper": the paper's hyper-parameters (hours; for offline runs).
/// Each binary prints the resolved scale so results are self-describing.
struct BenchScale {
  std::string name;     ///< "smoke" | "default" | "paper".
  int epochs = 0;       ///< Training epochs per model.
  int grid_h = 0;       ///< Grid height override (0 = dataset preset).
  int grid_w = 0;       ///< Grid width override (0 = dataset preset).
  int days = 0;         ///< Simulated days per dataset (0 = preset).
  int repr_dim = 0;     ///< d — representation channels.
  int dist_dim = 0;     ///< k — interactive distribution dimension.
  int batch_size = 0;   ///< Mini-batch size.
  uint64_t seed = 0;    ///< Base RNG seed.
};

/// Resolves the scale from `MUSE_BENCH_SCALE` (default: "default") and
/// `MUSE_BENCH_SEED` (default: 7).
BenchScale ResolveBenchScale();

/// Returns the environment variable or `fallback` when unset/empty.
std::string GetEnvOr(const char* name, const std::string& fallback);

}  // namespace musenet

#endif  // MUSENET_UTIL_BENCH_CONFIG_H_
