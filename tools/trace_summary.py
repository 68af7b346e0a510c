#!/usr/bin/env python3
"""Summarizes a MUSE-Net trace_event JSON dump.

Two views over the trace the obs layer writes (--trace-out / MUSENET_TRACE):

  * Top-N span names by total SELF time -- duration minus the time spent in
    child spans on the same thread, so an outer span that merely wraps a hot
    inner loop does not dominate the table. This is the "where does the time
    actually go" view.

  * Per-request critical path -- spans carrying a "rid" argument (the
    request id minted at Submit and threaded through batching into engine
    replay) are grouped per request and printed in timestamp order:
    request -> batch -> engine replay, with the gap between submit and
    batch-start visible as queue wait.

CI uses --assert-spans to fail when an instrumented layer goes silent
(substring match against span names, the same contract as the inline
python checks in ci.yml).

Usage:
  tools/trace_summary.py trace.json [--top 10] [--requests 5]
      [--assert-spans serve.batch,infer.run]

Stdlib only. Exit status: 0, or 1 when an --assert-spans name is missing.
"""

import argparse
import collections
import json
import sys


def load_events(path):
    doc = json.load(open(path))
    events = doc.get("traceEvents", [])
    complete = [e for e in events if e.get("ph") == "X"]
    instants = [e for e in events if e.get("ph") == "i"]
    return complete, instants, doc.get("droppedEvents", 0)


def self_times(complete):
    """Total self time (us) per span name, nesting computed per tid.

    Events arrive timestamp-ordered with enclosing spans first (the writer
    sorts by ts, then longer-duration first), so a single stack per tid
    recovers the nesting: when a span opens inside the stack top, its
    duration is subtracted from the parent's self time.
    """
    totals = collections.defaultdict(float)
    counts = collections.defaultdict(int)
    stacks = collections.defaultdict(list)  # tid -> [[end_ts, name, child_us]]
    for event in complete:
        tid = event.get("tid", 0)
        ts, dur = event["ts"], event["dur"]
        stack = stacks[tid]
        # Finalize spans that ended before this one starts: their child time
        # is complete, subtract it from the name's running self-time total.
        while stack and stack[-1][0] <= ts:
            _, name, child_us = stack.pop()
            totals[name] -= child_us
        if stack:
            # This span nests inside the stack top; credit its duration as
            # the parent's child time (grandchildren are credited to their
            # own parent, so self time subtracts direct children only).
            stack[-1][2] += dur
        totals[event["name"]] += dur
        counts[event["name"]] += 1
        stack.append([ts + dur, event["name"], 0.0])
    for stack in stacks.values():
        for _, name, child_us in stack:
            totals[name] -= child_us
    return totals, counts


def request_paths(complete, instants):
    """rid -> timestamp-ordered [(ts, name, dur_or_None)]."""
    paths = collections.defaultdict(list)
    for event in complete:
        rid = event.get("args", {}).get("rid")
        if rid is not None:
            paths[rid].append((event["ts"], event["name"], event["dur"]))
    for event in instants:
        rid = event.get("args", {}).get("rid")
        if rid is not None:
            paths[rid].append((event["ts"], event["name"], None))
    for spans in paths.values():
        spans.sort()
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="trace_event JSON file")
    parser.add_argument("--top", type=int, default=10,
                        help="span names to list by self time (default 10)")
    parser.add_argument("--requests", type=int, default=5,
                        help="request critical paths to print (default 5)")
    parser.add_argument("--assert-spans", default="",
                        help="comma-separated span names that must appear "
                             "(substring match); exit 1 when any is missing")
    args = parser.parse_args()

    complete, instants, dropped = load_events(args.trace)
    names = {e["name"] for e in complete} | {e["name"] for e in instants}

    missing = []
    for want in filter(None, args.assert_spans.split(",")):
        if not any(want in name for name in names):
            missing.append(want)
    if missing:
        print(f"FAIL: trace is missing span(s): {', '.join(missing)}",
              file=sys.stderr)
        return 1

    print(f"{len(complete)} spans, {len(instants)} instants, "
          f"{len(names)} distinct names, {dropped} dropped")

    totals, counts = self_times(complete)
    if totals:
        print(f"\ntop {args.top} span names by self time:")
        print(f"  {'self ms':>10}  {'count':>7}  {'avg us':>9}  name")
        ranked = sorted(totals.items(), key=lambda kv: kv[1], reverse=True)
        for name, self_us in ranked[:args.top]:
            n = counts[name]
            print(f"  {self_us / 1000.0:10.3f}  {n:7d}  "
                  f"{self_us / n:9.1f}  {name}")

    paths = request_paths(complete, instants)
    if paths:
        shown = sorted(paths)[:args.requests]
        print(f"\nper-request critical path "
              f"({len(paths)} requests traced, showing {len(shown)}):")
        for rid in shown:
            spans = paths[rid]
            origin = spans[0][0]
            print(f"  rid {rid}:")
            for ts, name, dur in spans:
                wait = ts - origin
                if dur is None:
                    print(f"    +{wait:9.1f}us  {name} (instant)")
                else:
                    print(f"    +{wait:9.1f}us  {name} ({dur:.1f}us)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
