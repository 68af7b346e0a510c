#!/usr/bin/env bash
# Serve smoke drill: trains a tiny model, then serves it end to end through
# the CLI with tracing and metrics armed, and checks that both outputs are
# well-formed and account for every request.
#
#   tests/drills/serve_smoke.sh path/to/musenet SCRATCH_DIR
#
# 1. Single tenant: `serve --ckpt` (the tenant `default`) serves 300
#    requests; serve.* counters, the batch-size histogram and the serve and
#    engine spans must all show them.
# 2. Two tenants (one container under two names) behind `--models`: every
#    request completes and the serve.* counters reconcile exactly —
#    requests = admitted + shed, admitted = completed + timed_out, and the
#    per-tenant admitted counts sum to the total. The trace carries the
#    swap-protocol spans of the initial shadow-validated loads.
# 3. An unknown --shed-policy is a usage error (exit 2).
set -euo pipefail

M=$1
T=$2
rm -rf "$T"
mkdir -p "$T"
cd "$T"

"$M" simulate --dataset taxi --out flows.bin --days 40
"$M" train --flows flows.bin --ckpt model.ckpt --epochs 1 --d 4 --k 8 \
  --verbose 0

MUSENET_NUM_THREADS=2 "$M" serve --flows flows.bin --ckpt model.ckpt \
  --d 4 --k 8 --requests 300 --max-batch 8 --max-wait-ms 2 \
  --trace-out serve_trace.json --metrics-out serve_metrics.json | tee serve.log
grep -q "served 300 requests" serve.log
python3 -m json.tool serve_trace.json > /dev/null
python3 -m json.tool serve_metrics.json > /dev/null
python3 - <<'PY'
import json
metrics = json.load(open('serve_metrics.json'))
counters = metrics['counters']
assert counters['serve.requests'] == 300, counters
assert counters['serve.completed'] == 300, counters
assert metrics['histograms']['serve.batch_size']['total'] >= 1, metrics
assert counters.get('infer.engine.fallbacks', 0) == 0, counters
trace = json.load(open('serve_trace.json'))
names = {e['name'] for e in trace['traceEvents']}
for want in ('serve.batch', 'infer.run', 'infer.plan.build'):
    assert any(want in n for n in names), f'missing span: {want}'
PY

MUSENET_NUM_THREADS=2 "$M" serve \
  --models "taxi=model.ckpt,taxi-b=model.ckpt" \
  --flows flows.bin --d 4 --k 8 \
  --requests 400 --max-batch 8 --max-wait-ms 2 \
  --trace-out mt_trace.json --metrics-out mt_metrics.json | tee mt_serve.log
grep -q "served 400 requests across 2 tenants (0 failed)" mt_serve.log
grep -q "serve drained cleanly" mt_serve.log
python3 - <<'PY'
import json
c = json.load(open('mt_metrics.json'))['counters']
assert c['serve.requests'] == 400, c
assert c['serve.requests'] == c['serve.admitted'] + c.get('serve.shed', 0), c
assert c['serve.admitted'] == c['serve.completed'] + c.get('serve.timed_out', 0), c
assert c['serve.taxi.admitted'] + c['serve.taxi-b.admitted'] == c['serve.admitted'], c
trace = json.load(open('mt_trace.json'))
names = {e['name'] for e in trace['traceEvents']}
for want in ('serve.swap.load', 'serve.swap.build', 'serve.swap.shadow'):
    assert any(want in n for n in names), f'missing span: {want}'
PY

status=0
"$M" serve --flows flows.bin --ckpt model.ckpt --d 4 --k 8 --requests 1 \
  --shed-policy bogus 2> bogus.err || status=$?
test "$status" -eq 2
grep -q -- "--shed-policy" bogus.err

echo "serve smoke drill passed"
