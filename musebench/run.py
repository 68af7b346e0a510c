#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

From the repository root:

    python3 musebench/run.py --workload single-stream --seed 1 \
        --seconds 50 --trace 0

The first run builds musebench/ (the library from src/, the experiment-graph
builders from bench/ and the benchmark binary) into $CARGO_TARGET_DIR, or
.bench_build/ when that is unset. Every workload then runs three parts, each
in its own process with its own thread budget:

  serve     one MUSE-Net tenant behind ModelRegistry + ForecastService,
            open-loop Poisson arrivals at fixed rates
  train     MuseNet::TrainWithReport at the `musenet train` defaults, for
            two fixed model seeds
  pipeline  the one-step table graph: cold, warm and incremental runs

The workloads differ in the training step: single-stream trains at
train_shards=1, sharded at train_shards=4 (at the default single worker),
both on one thread. The last line of stdout is the result: {"correct",
"attempted", "failed", "metrics"} with the end-to-end metrics of
BENCHMARK.json (--trace 0) or the per-layer metrics of a traced run
(--trace 1). A failed output check, including a run that changes a file of
the repository, prints the result with "correct": false and exits 1; a
failed build or a part that dies or hangs exits 1 without a result line.
A traced run writes the benchmark's spans to
<build dir>/spans/<workload>-<seed>-trace.json.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "musebench")

# Thread budget of each part (MUSENET_NUM_THREADS) and why. At 4 threads the
# batch-8 engine throughput ranged 2.1k-6.2k samples/s across six processes
# on a 4-vCPU VM, against 1.75k-2.06k at 1 thread, so everything that can
# run on one thread does.
SERVE_THREADS = 1     # A one-core replica: the dispatcher runs the compute.
TRAIN_THREADS = 1     # At the 4x6 grid four threads buy nothing.
PIPELINE_THREADS = 4  # jobs=4 stage workers; inner kernels run sequentially.
# Training shard count of each workload, at the default single worker. Four
# workers were dropped: their samples/s spread 0.43 of the median over five
# runs on a 4-vCPU VM.
WORKLOADS = {"single-stream": 1, "sharded": 4}
RUN_TIMEOUT_S = 170  # Whole run, build excluded.


STARTED = []  # Part processes, stopped and reaped by fail().


def fail(message):
    for proc in STARTED:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    print("musebench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "musebench")


def build():
    """Configures and builds the binary; exits non-zero on failure."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                shutil.rmtree(out, ignore_errors=True)
                fail("configure failed (are the library sources present?)")
        cmd = ["cmake", "--build", out, "--target", "musebench", "-j4"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
            fail("build failed")
    return os.path.join(out, "musebench")


def part_env(threads):
    env = dict(os.environ)
    env["MUSENET_NUM_THREADS"] = str(threads)
    env["MUSE_BENCH_SCALE"] = "default"
    for name in ("MUSE_BENCH_SEED", "MUSE_BENCH_NO_CACHE", "MUSENET_TRACE",
                 "MUSENET_POSTMORTEM", "MUSENET_DISABLE_POOL"):
        env.pop(name, None)
    return env


def parse_result(name, stdout, code):
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(name + " printed no result (exit %d)" % code)
    result["exit"] = code
    return result


class Part:
    """One part process, driven round by round over its stdin/stdout (see
    SignalReady / WaitForRound in common.h)."""

    def __init__(self, binary, name, threads, args, deadline):
        self.name = name
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [binary, name] + [str(a) for a in args], env=part_env(threads),
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        STARTED.append(self.proc)
        self.expect("ready")

    def expect(self, word):
        while True:
            left = self.deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, left))
            if not ready:
                fail("%s timed out waiting for '%s'" % (self.name, word))
            line = self.proc.stdout.readline()
            if not line:
                fail("%s exited early" % self.name)
            if line.strip() == word:
                return

    def round(self):
        self.proc.stdin.write("round\n")
        self.proc.stdin.flush()
        self.expect("done")

    def finish(self):
        try:
            stdout, _ = self.proc.communicate(
                timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(self.name + " timed out")
        return parse_result(self.name, stdout, self.proc.returncode)


def run_once(binary, name, threads, args, deadline):
    try:
        proc = subprocess.run(
            [binary, name] + [str(a) for a in args], env=part_env(threads),
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(name + " timed out")
    return parse_result(name, proc.stdout, proc.returncode)


def tree_state():
    """Size and modification time of each file a run must leave alone: what
    git tracks or would track when ROOT is a git checkout, else every file
    outside the build directory. None marks a listed file that is gone."""
    skip = os.path.normpath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    paths = None
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"], cwd=ROOT, capture_output=True, timeout=30)
        if listed.returncode == 0:
            paths = [p for p in listed.stdout.decode().split("\0") if p]
    except (OSError, subprocess.TimeoutExpired):
        pass
    if paths is None:
        paths = []
        for base, dirs, files in os.walk(ROOT):
            dirs[:] = [d for d in dirs if os.path.join(base, d) != skip]
            paths += [os.path.relpath(os.path.join(base, f), ROOT)
                      for f in files]
    state = {}
    for rel in paths:
        path = os.path.normpath(os.path.join(ROOT, rel))
        if path.startswith(skip + os.sep):
            continue
        try:
            st = os.lstat(path)
            state[rel] = (st.st_size, st.st_mtime_ns)
        except OSError:
            state[rel] = None
    return state


def save_spans(scratch, name):
    """Collects the parts' span dumps from scratch into one file kept under
    the build directory; returns its path."""
    spans = {}
    for part in ("serve", "train"):
        path = os.path.join(scratch, part, part + "-spans.json")
        if os.path.exists(path):
            with open(path) as f:
                spans[part] = json.load(f)
    out = os.path.join(build_dir(), "spans", name + "-trace.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(spans, f)
    return out


def source_digest():
    """Git commit when available (marked dirty when the tree has changes),
    else a digest of the sources built."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            status = subprocess.run(["git", "status", "--porcelain"],
                                    cwd=ROOT, capture_output=True, text=True,
                                    timeout=10)
            dirty = "-dirty" if status.stdout.strip() else ""
            return "git:" + sha.stdout.strip() + dirty
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "musebench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()


def provenance(host, shards):
    cache = {}
    with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    march = cache.get("MUSEBENCH_HAS_MARCH_NATIVE", "") in ("1", "TRUE", "ON")
    metrics = host["metrics"]
    return {
        "source": source_digest(),
        "compiler": version[0] if version else compiler,
        "flags": cache.get("CMAKE_CXX_FLAGS_RELEASE", "") +
                 (" -march=native" if march else ""),
        "isa": [isa for isa in ("avx2", "avx512f")
                if metrics.get("host." + isa)],
        "nproc": os.cpu_count(),
        "threads": {"serve": SERVE_THREADS, "train": TRAIN_THREADS,
                    "pipeline": PIPELINE_THREADS},
        "train_shards": shards,
        "sleep_2ms_overshoot_ms": {
            q: metrics.get("host.sleep_overshoot_%s_ms" % q)
            for q in ("p50", "p99", "max")},
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    tree_before = tree_state()
    binary = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    shards = WORKLOADS[args.workload]
    scratch = os.path.join(build_dir(), "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    common = ["--seed", args.seed, "--trace", args.trace]
    host = run_once(binary, "host", 1, [], deadline)
    # Set-ups run one after another; then the parts' rounds interleave, so a
    # slow spell of the host (they last tens of seconds on a shared VM) is
    # shared by every part instead of deciding one part's numbers. Serve
    # phase lengths scale with --seconds; training and the pipeline run
    # fixed work (two trainings, two pipeline rounds).
    serve = Part(binary, "serve", SERVE_THREADS, common + [
        "--dir", os.path.join(scratch, "serve"), "--seconds", args.seconds],
        deadline)
    train = Part(binary, "train", TRAIN_THREADS, common + [
        "--dir", os.path.join(scratch, "train"), "--shards", shards],
        deadline)
    pipeline = Part(binary, "pipeline", PIPELINE_THREADS, common + [
        "--dir", os.path.join(scratch, "pipeline")], deadline)
    for part in (serve, train, serve, pipeline, serve, train, serve,
                 pipeline, serve):
        part.round()
    parts = {"host": host, "serve": serve.finish(), "train": train.finish(),
             "pipeline": pipeline.finish()}
    if args.trace:
        path = save_spans(scratch, "%s-%d" % (args.workload, args.seed))
        print("musebench: spans written to " + path, file=sys.stderr)
    shutil.rmtree(scratch, ignore_errors=True)
    tree_after = tree_state()
    changed = sorted(p for p in set(tree_before) | set(tree_after)
                     if tree_before.get(p) != tree_after.get(p))
    for path in changed:
        print("musebench: the run changed " + path, file=sys.stderr)

    correct = not changed and all(p["correct"] and p["exit"] == 0
                                  for p in parts.values())
    attempted = sum(p["attempted"] for n, p in parts.items() if n != "host")
    failed = sum(p["failed"] for n, p in parts.items() if n != "host")
    merged = {}
    for name, part in parts.items():
        for key, value in part["metrics"].items():
            if key not in ("setup_s", "peak_rss_mb"):
                merged[key] = value
    work = [p for n, p in parts.items() if n != "host"]
    merged["setup_s"] = sum(p["metrics"].get("setup_s", 0.0) for p in work)
    merged["peak_rss_mb"] = max(p["metrics"].get("peak_rss_mb", 0.0)
                                for p in work)
    merged["completed_frac"] = 1.0 - failed / max(1, attempted)

    metrics = {}
    for m in wanted:
        if m["name"] not in merged:
            fail("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": merged[m["name"]], "unit": m["unit"]}
    print(json.dumps({"provenance": provenance(parts["host"], shards)}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
