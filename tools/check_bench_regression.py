#!/usr/bin/env python3
"""Compares a fresh benchmark run against the committed BENCH_*.json.

Guards the committed performance claims: a code change that silently
regresses inference latency or training throughput should fail a local
tools/run_*_bench.sh before the regressed numbers get committed as the new
baseline.

The tool auto-detects which benchmark document it was handed:

  inference (BENCH_inference.json) -- single-stream engine/autograd p50 and
                                      the specialized fp32 p50
  training  (BENCH_training.json)  -- per-benchmark training-step throughput
                                      (items/s), including the sharded
                                      data-parallel workers sweep

Only p50s are compared: p99s on shared hardware are too noisy to gate on.
A metric regresses when fresh > committed * (1 + tolerance); improvements
are reported but never fail. Throughput metrics (items/s) regress in the
opposite direction and are handled accordingly.

Usage:
  tools/check_bench_regression.py --committed BENCH_inference.json \
      --fresh /tmp/inference_fresh.json [--tolerance 0.25]

Exit status: 0 when every metric is within tolerance, 1 on any regression,
2 on malformed input. Stdlib only.
"""

import argparse
import json
import sys


def detect_kind(doc):
    if "single_stream_batch1" in doc:
        return "inference"
    if any("TrainStep" in bench.get("name", "")
           for bench in doc.get("benchmarks", [])):
        return "training"
    return None


def inference_metrics(doc):
    metrics = {}
    single = doc.get("single_stream_batch1", {})
    for lane in ("engine_ms", "autograd_ms"):
        if lane in single and "p50" in single[lane]:
            metrics[f"single_stream_batch1.{lane}.p50"] = (
                single[lane]["p50"], "latency")
    for prec, spec in doc.get("specialized_batch1", {}).items():
        if "engine_p50_ms" in spec:
            metrics[f"specialized_batch1.{prec}.engine_p50_ms"] = (
                spec["engine_p50_ms"], "latency")
    return metrics


def training_metrics(doc):
    """Per-benchmark throughput from a training bench document (google-
    benchmark JSON plus provenance). Single-run entries only; aggregates,
    when present, are too coarse to pair reliably across formats."""
    metrics = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        if "items_per_second" in bench:
            metrics[f"{bench['name']}.items_per_second"] = (
                bench["items_per_second"], "throughput")
    return metrics


EXTRACTORS = {
    "inference": inference_metrics,
    "training": training_metrics,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--committed", required=True,
                        help="baseline document (the committed BENCH_*.json)")
    parser.add_argument("--fresh", required=True,
                        help="freshly measured document of the same kind")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional slowdown (default 0.25)")
    args = parser.parse_args()

    try:
        committed = json.load(open(args.committed))
        fresh = json.load(open(args.fresh))
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    kind = detect_kind(committed)
    if kind is None or detect_kind(fresh) != kind:
        print("error: unrecognized or mismatched benchmark documents "
              f"(committed={detect_kind(committed)}, fresh={detect_kind(fresh)})",
              file=sys.stderr)
        return 2

    base = EXTRACTORS[kind](committed)
    new = EXTRACTORS[kind](fresh)

    regressions = []
    compared = 0
    for name, (base_value, direction) in sorted(base.items()):
        if name not in new or base_value <= 0:
            continue
        fresh_value = new[name][0]
        compared += 1
        if direction == "latency":
            ratio = fresh_value / base_value
            regressed = ratio > 1.0 + args.tolerance
        else:  # throughput: lower is worse
            ratio = base_value / fresh_value if fresh_value > 0 else float("inf")
            regressed = ratio > 1.0 + args.tolerance
        delta_pct = (fresh_value / base_value - 1.0) * 100.0
        status = "REGRESSED" if regressed else "ok"
        print(f"{status:>9}  {name}: committed={base_value:g} "
              f"fresh={fresh_value:g} ({delta_pct:+.1f}%)")
        if regressed:
            regressions.append((name, delta_pct))

    if compared == 0:
        print("error: no comparable metrics between the two documents",
              file=sys.stderr)
        return 2
    if regressions:
        names = ", ".join(f"{n} ({d:+.1f}%)" for n, d in regressions)
        print(f"FAIL: {len(regressions)} metric(s) beyond "
              f"+/-{args.tolerance:.0%} tolerance: {names}", file=sys.stderr)
        return 1
    print(f"PASS: {compared} {kind} metric(s) within "
          f"{args.tolerance:.0%} of the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
