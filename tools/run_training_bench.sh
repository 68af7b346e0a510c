#!/usr/bin/env bash
# Builds bench_training_step and records end-to-end training-step throughput
# to BENCH_training.json at the repo root. The file also carries the fixed
# pre-PR baseline (measured on the same machine immediately before the pooled
# storage + fused training path landed) and the speedup against it, so the
# performance claim stays auditable.
#
# Usage: tools/run_training_bench.sh [build_dir] [extra benchmark flags...]
# e.g.   tools/run_training_bench.sh build --benchmark_min_time=5
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build"
if [[ $# -gt 0 && "$1" != -* ]]; then
  build_dir="$1"
  shift
fi

source "$repo_root/tools/bench_provenance.sh"
bench_ensure_build "$repo_root" "$build_dir" bench_training_step

raw_json="$(mktemp)"
trap 'rm -f "$raw_json"' EXIT

"$build_dir/bench/bench_training_step" \
  --benchmark_out="$raw_json" \
  --benchmark_out_format=json \
  --benchmark_min_time=2 \
  "$@"

provenance="$(bench_provenance_json "$repo_root" "$build_dir")"

fresh_json="$(mktemp)"
trap 'rm -f "$raw_json" "$fresh_json"' EXIT

python3 - "$raw_json" "$fresh_json" "$provenance" <<'PY'
import json, sys

# Pre-PR throughput (items/s), measured with this same benchmark at the
# commit before the pooled storage + fused training path changes.
BASELINE = {
    "BM_MuseNetTrainStep/8": 79.06,
    "BM_MuseNetTrainStep/32": 101.19,
    "BM_DeepStnTrainStep/8": 209.49,
    "BM_DeepStnTrainStep/32": 233.27,
}

raw = json.load(open(sys.argv[1]))
out = {"context": raw["context"],
       "provenance": json.loads(sys.argv[3]),
       "benchmarks": []}
for bench in raw["benchmarks"]:
    entry = dict(bench)
    base = BASELINE.get(bench["name"])
    if base is not None:
        entry["baseline_items_per_second"] = base
        entry["speedup_vs_baseline"] = round(
            bench["items_per_second"] / base, 3)
    out["benchmarks"].append(entry)

# Data-parallel scaling headline: optimizer steps/s of the sharded step
# (fixed 4 shards, batch 32) at each worker count, and the speedup against
# the fused single-stream step measured in the same run. On hosts with
# fewer cores than workers the extra workers time-slice, so speedups there
# reflect scheduling overhead, not scaling (see provenance.hardware_cores).
single_stream = next(
    (b["items_per_second"] for b in raw["benchmarks"]
     if b["name"] == "BM_MuseNetTrainStep/32"), None)
by_workers = {}
for bench in raw["benchmarks"]:
    name = bench["name"]
    if not name.startswith("BM_MuseNetTrainStepSharded/"):
        continue
    batch, workers = (int(part) for part in name.split("/")[1:3])
    steps = bench["items_per_second"] / batch
    entry = {"steps_per_sec": round(steps, 3)}
    if single_stream:
        entry["speedup_vs_single_stream"] = round(
            steps / (single_stream / batch), 3)
    by_workers[str(workers)] = entry
if by_workers:
    out["steps_per_sec_by_workers"] = by_workers

json.dump(out, open(sys.argv[2], "w"), indent=2)
for b in out["benchmarks"]:
    if "speedup_vs_baseline" in b:
        print(f"  {b['name']:28s} {b['items_per_second']:8.2f} items/s "
              f"({b['speedup_vs_baseline']}x vs baseline)")
for workers, entry in sorted(by_workers.items(), key=lambda kv: int(kv[0])):
    line = f"  sharded workers={workers:2s} {entry['steps_per_sec']:8.2f} steps/s"
    if "speedup_vs_single_stream" in entry:
        line += f" ({entry['speedup_vs_single_stream']}x vs single-stream)"
    print(line)
PY

# Gate against the committed record before overwriting it: a regressed run
# must fail here, not become the new baseline.
if [[ -f "$repo_root/BENCH_training.json" ]]; then
  python3 "$repo_root/tools/check_bench_regression.py" \
    --committed "$repo_root/BENCH_training.json" \
    --fresh "$fresh_json" \
    --tolerance "${MUSE_BENCH_TOL:-0.25}"
fi

mv "$fresh_json" "$repo_root/BENCH_training.json"
trap 'rm -f "$raw_json"' EXIT
echo "Wrote $repo_root/BENCH_training.json"
