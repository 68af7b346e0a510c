#!/usr/bin/env bash
# Bench-regression tool drill: tools/check_bench_regression.py on each
# committed record it gates (BENCH_training.json, BENCH_inference.json),
# three ways:
#   - against itself: exit 0;
#   - against a copy with one gated metric 2x worse: exit 1, naming it;
#   - against a malformed document: exit 2.
#
#   tests/drills/bench_regression.sh REPO_ROOT SCRATCH_DIR
set -euo pipefail

R=$1
T=$2
rm -rf "$T"
mkdir -p "$T"
cd "$T"

check() {
  local status=0
  python3 "$R/tools/check_bench_regression.py" --committed "$1" \
    --fresh "$2" > check.log 2>&1 || status=$?
  echo "$status"
}

# name | committed record | python that makes one gated metric 2x worse
for spec in \
  "BM_MuseNetTrainStep/8.items_per_second|BENCH_training.json|[b for b in d['benchmarks'] if b['name'] == 'BM_MuseNetTrainStep/8'][0]['items_per_second'] /= 2" \
  "single_stream_batch1.engine_ms.p50|BENCH_inference.json|d['single_stream_batch1']['engine_ms']['p50'] *= 2"; do
  IFS='|' read -r metric record worsen <<< "$spec"
  committed="$R/$record"

  test "$(check "$committed" "$committed")" -eq 0

  python3 - "$committed" worse.json "$worsen" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
exec(sys.argv[3])
json.dump(d, open(sys.argv[2], 'w'))
PY
  test "$(check "$committed" worse.json)" -eq 1
  grep -q "REGRESSED  $metric" check.log

  head -c 100 "$committed" > malformed.json
  test "$(check "$committed" malformed.json)" -eq 2
done

echo "bench regression drill passed"
