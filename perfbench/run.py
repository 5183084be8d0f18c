#!/usr/bin/env python3
"""The repo benchmark: builds ebi_perfbench from source, runs one workload,
checks its answers and prints every metric by name with its unit.

    python3 perfbench/run.py --workload star_read --seed 1 --seconds 10 --trace 0

Run from the repository root. ebi_perfbench is built with CMake into
$CARGO_TARGET_DIR (default .bench_build); scratch files go to .bench_work
and a full report per run to .bench_out. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics when --trace is 0 and the per-layer metrics when it
is 1. See perfbench/NOTES.md for what each workload and metric shows.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds ebi_perfbench; returns its path."""
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "ebi_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1, deadline - time.monotonic()))
            except (OSError, subprocess.TimeoutExpired) as err:
                fail("build failed: %s" % err)
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                if step[1] == "-S":
                    # A failed configure leaves a cache that would skip it
                    # next time.
                    shutil.rmtree(build_dir, ignore_errors=True)
                fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "ebi_perfbench")


def report_path(args, suffix):
    """Where this run's report files go (.bench_out/ in the checkout)."""
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, "%s-seed%d-trace%d%s" % (
        args.workload, args.seed, args.trace, suffix))


def run_binary(binary, args):
    """Runs ebi_perfbench in a private scratch directory; returns its record."""
    work = os.path.join(ROOT, ".bench_work", "%s-%d-%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "record.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--out", out]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-4000:])
            fail("ebi_perfbench exited with %d" % done.returncode)
        if args.trace:
            # Keep the raw record: it holds the trace's spans.
            shutil.copy(out, report_path(args, ".record.json"))
        with open(out) as f:
            return json.load(f)
    except subprocess.TimeoutExpired:
        fail("ebi_perfbench ran past %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, record, values, attempted, failed, correct):
    """Prints the human-readable table and writes the full report."""
    meta = record["meta"]
    print("perfbench %s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("  " + ", ".join("%s=%s" % kv for kv in sorted(meta.items())))
    checks = record["checks"]
    print("  answer checks: %d performed, %d failed" % (
        checks["performed"], checks["failed"]))
    for failure in checks["failures"]:
        print("    FAILED: " + failure)
    # With --trace 0 the table also lists the write-path end-to-end
    # metrics and fail_rate; BENCHMARK.json files them per layer, since
    # a bounded metric must be non-zero on every workload.
    width = max(len(n) for n in values)
    for name, v in values.items():
        print("  %-*s %14.6g %-6s %s" % (
            width, name, v.value, metrics.UNIT[name], v.note))
    late = record["untraced"]["appender_late_max_ms"]
    if late > 0:
        print("  scheduled appender ran at most %.3f ms late" % late)
    print("  operations: %d attempted, %d failed" % (attempted, failed))

    with open(report_path(args, ".json"), "w") as f:
        json.dump({"meta": meta, "seconds": args.seconds, "correct": correct,
                   "attempted": attempted, "failed": failed, "checks": checks,
                   "metrics": {n: {"value": v.value,
                                   "unit": metrics.UNIT[n],
                                   "note": v.note,
                                   "source": metrics.PATH[n][1]}
                               for n, v in values.items()}},
                  f, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=metrics.ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    record = run_binary(build(), args)
    try:
        values = metrics.derive(record, args.workload, args.trace)
    except ValueError as err:
        fail(str(err))
    attempted, failed = metrics.operations(record, args.trace)
    correct = record["checks"]["failed"] == 0 and record["checks"]["performed"] > 0
    report(args, record, values, attempted, failed, correct)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v.value, "unit": metrics.UNIT[n]}
                    for n, v in values.items()
                    if args.trace or n in metrics.BOUNDED},
    }))


if __name__ == "__main__":
    main()
