#!/usr/bin/env bash
# CLI flags drill: a bad command line is a usage error. Each case below must
# exit 2 and name its flag (or stray token) on stderr as `error: <token>: `,
# before the verb writes or loads anything: the case's empty working
# directory stays empty (no output file, no ./flows.bin, no results/), and
# no `loaded tenant` or `[pipeline]` line is printed.
#
#   tests/drills/cli_flags.sh path/to/musenet SCRATCH_DIR
set -euo pipefail

M=$1
T=$2
rm -rf "$T"
mkdir -p "$T/data"
cd "$T"

export MUSE_BENCH_SCALE=smoke
D=$T/data
"$M" simulate --dataset taxi --out "$D/flows.bin" --days 40 > /dev/null
"$M" train --flows "$D/flows.bin" --ckpt "$D/model.ckpt" --epochs 1 --d 4 \
  --k 8 --verbose 0 > /dev/null
# `train` writes its checkpoint into the case's directory; the other model
# verbs read the trained one.
TRAIN=(--flows "$D/flows.bin" --ckpt model.ckpt --verbose 0)
MODEL=(--flows "$D/flows.bin" --ckpt "$D/model.ckpt")

# expect_usage_error TOKEN ARGS...: runs `musenet ARGS...` in an empty
# directory and checks the exit status, the message and that nothing ran.
expect_usage_error() {
  local token=$1
  shift
  rm -rf work
  mkdir work
  local status=0
  (cd work && "$M" "$@" > ../case.out 2> ../case.err) || status=$?
  if [ "$status" -ne 2 ]; then
    echo "exit $status, not 2: musenet $*" >&2
    cat case.err >&2
    exit 1
  fi
  grep -q -- "^error: $token: " case.err ||
    { echo "stderr does not name $token: musenet $*" >&2; cat case.err >&2
      exit 1; }
  if [ -n "$(ls -A work)" ]; then
    echo "wrote $(ls -A work): musenet $*" >&2
    exit 1
  fi
  if grep -q "loaded tenant\|\[pipeline\]" case.out case.err; then
    echo "loaded before failing: musenet $*" >&2
    exit 1
  fi
}

expect_usage_error --epochs train "${TRAIN[@]}" --epochs two
expect_usage_error --lr train "${TRAIN[@]}" --epochs 1 --lr abc
expect_usage_error --epoch train "${TRAIN[@]}" --epoch 1
expect_usage_error --bogus simulate --dataset taxi --bogus --out t3.bin \
  --days 40
expect_usage_error --dataset simulate --dataset nyc
expect_usage_error --datasets pipeline --datasets nyc \
  --models HistoricalAverage
expect_usage_error --jobs pipeline --datasets bike \
  --models HistoricalAverage --jobs x
expect_usage_error --models pipeline --datasets bike --models Bogus
expect_usage_error --index predict "${MODEL[@]}" --d 4 --k 8 --index 1x
expect_usage_error --k evaluate "${MODEL[@]}" --d 4 --k x
expect_usage_error --d train "${TRAIN[@]}" --epochs 1 --d 0
expect_usage_error --k serve "${MODEL[@]}" --d 4 --k 2 --requests 1
expect_usage_error --expect-flows-hash train "${TRAIN[@]}" --epochs 1 \
  --expect-flows-hash zz
# A missing value, a stray token, another verb's flag, a negative count and
# a deadline past int64 nanoseconds.
expect_usage_error --flows train --ckpt model.ckpt --flows
expect_usage_error extra train "${TRAIN[@]}" --epochs 1 extra
expect_usage_error --epochs evaluate "${MODEL[@]}" --d 4 --k 8 --epochs 3
expect_usage_error --days simulate --dataset taxi --out neg.bin --days -3
expect_usage_error --deadline-ms serve "${MODEL[@]}" --d 4 --k 8 \
  --requests 1 --deadline-ms 1e300

# Without arguments, musenet prints the flag table and exits 2.
status=0
"$M" > usage.out 2> usage.err || status=$?
test "$status" -eq 2
grep -q -- "--max-batch N  \[serve\] default 8" usage.err

echo "cli flags drill passed"
