#!/usr/bin/env bash
# Line-coverage census of the shipped binaries, run without any test: which
# library code does some verb, bench binary or example actually execute?
#
# Builds the CLI, the 15 table/figure bench binaries and the 6 examples with
# -O1 -fno-inline --coverage, runs every verb with its main flags and every
# bench binary and example at MUSE_BENCH_SCALE=smoke, then prints the src/
# lines that ran, each musenet:: function that never ran, and each src/
# translation unit that no run executed. Timing-dependent failure paths
# (deadline expiry under load) may or may not run.
#
# Usage: tools/coverage_census.sh [build_dir]   (default: build-census)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
B="${1:-$repo_root/build-census}"
mkdir -p "$B"
B="$(cd "$B" && pwd)"
cmake -S "$repo_root" -B "$B" -DCMAKE_BUILD_TYPE=Census \
  -DCMAKE_CXX_FLAGS="-O1 -fno-inline --coverage" \
  -DCMAKE_EXE_LINKER_FLAGS=--coverage > "$B/configure.log"
BENCHES="table1_complexity table2_onestep table3_multistep table4_peak
  table5_weekday table6_ablation fig1_distribution_shift fig2_interaction_shift
  fig4_prediction_curves fig5_tsne fig6_informativeness fig7_contribution
  fig8_interpretability fig9_sensitivity ablation_design"
EXAMPLES="quickstart simulate_city compare_models multi_step_forecast
  disentangle_analysis energy_forecast"
TARGETS="musenet $EXAMPLES"
for b in $BENCHES; do TARGETS="$TARGETS bench_$b"; done
# shellcheck disable=SC2086
cmake --build "$B" -j"$(nproc)" --target $TARGETS > "$B/build.log"
find "$B" -name '*.gcda' -delete

export MUSE_BENCH_SCALE=smoke MUSENET_NUM_THREADS=2
M=$B/tools/musenet
R=$B/census_run
rm -rf "$R" && mkdir -p "$R" && cd "$R"
run() {
  echo "+ $*" >> "$R/commands.log"
  "$@" >> "$R/run.log" 2>&1 || { echo "failed: $*" >&2; exit 1; }
}

run "$M" simulate --dataset bike --out bike.bin --days 40 --seed 7
run "$M" simulate --dataset taxi --out taxi.bin --days 40
run "$M" simulate --dataset bj --out bj.bin --days 32 --grid-h 8 --grid-w 8
hash=$(grep -o 'hash 0x[0-9a-f]*' run.log | sed -n 2p | cut -d' ' -f2)
run "$M" train --flows taxi.bin --ckpt m.ckpt --epochs 2 --d 4 --k 8 \
  --expect-flows-hash "$hash" --checkpoint-dir ck --checkpoint-every 1 \
  --keep-last 2 --trace-out train_trace.json --metrics-out train_metrics.json \
  --run-log train.jsonl --verbose 0
run "$M" train --flows taxi.bin --ckpt m.ckpt --epochs 3 --d 4 --k 8 \
  --checkpoint-dir ck --resume 1 --verbose 0
run "$M" train --flows taxi.bin --ckpt dp.ckpt --epochs 1 --d 4 --k 8 \
  --train-workers 2 --train-shards 4 --prefetch 1 --verbose 0
run env MUSENET_FAULT_NAN_GRAD=3 "$M" train --flows taxi.bin --ckpt s.ckpt \
  --epochs 1 --d 4 --k 8 --on-nonfinite skip --verbose 0
run "$M" train --flows taxi.bin --ckpt b.ckpt --epochs 1 --d 4 --k 8 \
  --seed 11 --verbose 0
run "$M" evaluate --flows taxi.bin --ckpt m.ckpt --d 4 --k 8
run "$M" predict --flows taxi.bin --ckpt m.ckpt --index 100 --d 4 --k 8
run "$M" bench-infer --flows taxi.bin --ckpt m.ckpt --d 4 --k 8 --iters 20 \
  --batch 8 --out infer.json
run "$M" bench-infer --flows taxi.bin --ckpt m.ckpt --d 4 --k 8 --iters 20 \
  --batch 1 --specialize 1 --out infer_spec.json
run "$M" serve --flows taxi.bin --ckpt m.ckpt --d 4 --k 8 --requests 200 \
  --max-batch 8 --specialize 1 \
  --trace-out serve_trace.json --metrics-out serve_metrics.json
# Multi-tenant serve: loadgen, admission, quality, the HTTP endpoints and
# one hot swap.
cp m.ckpt live.ckpt
"$M" serve --models "taxi=live.ckpt,taxi-b=m.ckpt" --flows taxi.bin --d 4 \
  --k 8 --hot-swap-watch 1 --watch-interval-ms 100 --loadgen 1 \
  --duration-s 4 --peak-rps 200 --max-queue 16 --deadline-ms 100 \
  --rate-rps 150 --burst 20 --quality 1 --obs-port 0 \
  --postmortem pm.json --run-log serve.jsonl \
  --metrics-out mt_metrics.json > mt.log 2>&1 &
pid=$!
port=""
for _ in $(seq 1 100); do
  port=$(grep -o '127\.0\.0\.1:[0-9]*' mt.log | head -1 | cut -d: -f2 || true)
  [ -n "$port" ] && break
  sleep 0.1
done
sleep 1
for path in metrics healthz statusz "statusz?dump=1"; do
  python3 -c "import urllib.request,sys; urllib.request.urlopen(
    'http://127.0.0.1:$port/' + sys.argv[1]).read()" "$path" || true
done
cp b.ckpt swap.tmp && mv -f swap.tmp live.ckpt
wait "$pid" || { echo "failed: multi-tenant serve (see mt.log)" >&2; exit 1; }
run "$M" pipeline --datasets bike,taxi --cache-dir cache --jobs 2 --explain 1
run "$M" pipeline --datasets bike --models MUSE-Net,HistoricalAverage \
  --cache-dir cache --override 'MUSE-Net:epochs=2' --horizon 3 --bucket peak
for b in $BENCHES; do run "$B/bench/bench_$b"; done
for e in $EXAMPLES; do run "$B/examples/$e"; done

# Summary over src/ only. gcov merges a header's counts across every
# translation unit named in one invocation.
cd "$B"
find src -name '*.gcno' | sort |
  xargs gcov -n -f -m -r -s "$repo_root" > "$R/gcov.txt" 2> /dev/null || true
python3 - "$R/gcov.txt" <<'EOF'
import re, sys
files, funcs = {}, {}
cur = None
for line in open(sys.argv[1]):
    m = re.match(r"(File|Function) '(.*)'", line)
    if m:
        cur = m.groups()
        continue
    m = re.match(r"Lines executed:([\d.]+)% of (\d+)", line)
    if not m or cur is None:
        continue
    pct, n = float(m.group(1)), int(m.group(2))
    hit = round(pct * n / 100)
    if cur[0] == "File" and cur[1].startswith("src/"):
        files[cur[1]] = (hit, n)
    elif cur[0] == "Function" and "musenet::" in cur[1]:
        funcs[cur[1]] = max(funcs.get(cur[1], 0), hit)
hit = sum(h for h, _ in files.values())
total = sum(n for _, n in files.values())
print(f"src/ lines run: {hit} of {total}")
never = sorted(f for f, h in funcs.items() if h == 0)
print(f"musenet:: functions never run: {len(never)}")
for f in never:
    print("  " + f)
EOF
echo "src/ translation units no run executed:"
for gcno in $(find src -name '*.gcno' | sort); do
  [ -e "${gcno%.gcno}.gcda" ] || echo "  ${gcno%.gcno}"
done
