#!/usr/bin/env bash
# Train fault drills: the CLI recovers from injected NaN gradients.
#
#   tests/drills/train_faults.sh path/to/musenet SCRATCH_DIR
#
# 1. A poisoned gradient at step 5 under the skip-batch policy: the run must
#    complete and write a loadable checkpoint, and evaluate must read it.
# 2. The same fault on the data-parallel path: the NaN lands in one shard's
#    gradient buffer, flows through the tree reduction, and must trigger the
#    rollback policy exactly as single-stream training does. Phase 1 records
#    an epoch-1 checkpoint and the steps-per-epoch count; phase 2 resumes
#    with the fault armed one step into epoch 2, so a checkpoint always
#    exists to roll back to.
set -euo pipefail

M=$1
T=$2
rm -rf "$T"
mkdir -p "$T"
cd "$T"

(
  export MUSENET_FAULT_NAN_GRAD=5 MUSE_BENCH_SCALE=smoke
  "$M" simulate --dataset taxi --out flows.bin --days 40
  "$M" train --flows flows.bin --ckpt model.ckpt \
    --epochs 2 --d 4 --k 8 --verbose 0 \
    --checkpoint-dir ckpts --on-nonfinite skip
  "$M" evaluate --flows flows.bin --ckpt model.ckpt --d 4 --k 8
)

"$M" train --flows flows.bin --ckpt model_dp.ckpt \
  --epochs 1 --d 4 --k 8 --verbose 0 \
  --train-workers 4 --train-shards 4 --prefetch 1 \
  --checkpoint-dir ckpts_dp | tee dp_phase1.log
steps=$(grep -o 'steps=[0-9]*' dp_phase1.log | cut -d= -f2)
MUSENET_FAULT_NAN_GRAD=$((steps + 1)) \
  "$M" train --flows flows.bin --ckpt model_dp.ckpt \
  --epochs 2 --d 4 --k 8 --verbose 0 \
  --train-workers 4 --train-shards 4 --prefetch 1 \
  --checkpoint-dir ckpts_dp --resume 1 \
  --on-nonfinite rollback 2>&1 | tee dp_drill.log
grep -q "rolled back to checkpoint" dp_drill.log
grep -q "train summary:" dp_drill.log
"$M" evaluate --flows flows.bin --ckpt model_dp.ckpt --d 4 --k 8

echo "train faults drill passed"
