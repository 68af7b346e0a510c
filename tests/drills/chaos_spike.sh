#!/usr/bin/env bash
# Chaos drill, latency spike: a 300 ms replay stall hits the dispatcher at
# its 20th batch while the load generator keeps offering traffic against a
# short queue and a tight deadline. The service must degrade by shedding or
# expiring requests and then recover to a clean drain, never crash or
# deadlock, and its serve.* counters must reconcile:
# requests = admitted + shed, admitted = completed + timed_out.
#
#   tests/drills/chaos_spike.sh path/to/musenet SCRATCH_DIR
set -euo pipefail

M=$1
T=$2
rm -rf "$T"
mkdir -p "$T"
cd "$T"

export MUSE_BENCH_SCALE=smoke
"$M" simulate --dataset taxi --out flows.bin --days 40
"$M" train --flows flows.bin --ckpt model.ckpt --epochs 1 --d 4 --k 8 \
  --verbose 0

MUSENET_FAULT_SLOW_REPLAY_MS=300 MUSENET_FAULT_SLOW_REPLAY_AT=20 \
  "$M" serve --models "taxi=model.ckpt" \
  --flows flows.bin --d 4 --k 8 \
  --loadgen 1 --duration-s 5 --peak-rps 400 \
  --max-queue 16 --deadline-ms 100 \
  --metrics-out chaos_spike_metrics.json | tee chaos_spike.log
grep -q "serve drained cleanly" chaos_spike.log
python3 - <<'PY'
import json
c = json.load(open('chaos_spike_metrics.json'))['counters']
assert c.get('faults.slow_replays', 0) == 1, c
degraded = c.get('serve.shed', 0) + c.get('serve.timed_out', 0)
assert degraded > 0, f'spike never shed anything: {c}'
assert c.get('serve.completed', 0) > 0, c
assert c['serve.requests'] == c['serve.admitted'] + c.get('serve.shed', 0), c
assert c['serve.admitted'] == c.get('serve.completed', 0) + c.get('serve.timed_out', 0), c
PY

echo "chaos spike drill passed"
