#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark (and the libraries it links, from ../src) into .bench_build, or
into $CARGO_TARGET_DIR when that is set; later calls rebuild only what
changed. The benchmark's standard output is passed through unchanged: a
report line, then the result object as the last line. An untraced
bulk-wrapped or small-raw run is split over several processes: their report
lines, then one result combined from theirs. Trace files, the random-access
workload's archive files and bulk-wrapped's shared inputs go to .bench_out.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("bulk-wrapped", "small-raw", "random-access", "serve-closed")
RUN_TIMEOUT_S = 175
# Untraced runs of these workloads are split over PROCESSES processes, one
# after another, each measuring its share of --seconds; every metric is the
# median over the processes. How fast they run is partly a property of the
# process (on a VM, bulk-wrapped's decode differs by up to a third from one
# process to the next, for the whole life of each, while its compress does
# not move), so one process would report that draw rather than the code.
# bulk-wrapped's processes share one synthesis of the inputs through a file.
# random-access is left whole: its set-up alone takes several seconds.
SPLIT = ("bulk-wrapped", "small-raw")
PROCESSES = 5


def cores():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build(target):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", str(cores())])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_tests")], cwd=ROOT).returncode)
    if args.workload is None:
        ap.error("--workload is required")

    exe = build("perfbench")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, SZI_THREADS=str(cores()))
    # Transparent huge pages for the heap, as a service holding field-size
    # buffers would run: it takes most page walks out of the memory-bound
    # decode.
    tunables = [t for t in env.get("GLIBC_TUNABLES", "").split(":") if t]
    env["GLIBC_TUNABLES"] = ":".join(tunables + ["glibc.malloc.hugetlb=1"])
    n = PROCESSES if args.workload in SPLIT and not args.trace else 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / n), "--trace", str(args.trace),
           "--out-dir", out_dir]
    cache = os.path.join(out_dir, "inputs-%d.bin" % os.getpid())
    if n > 1 and args.workload == "bulk-wrapped":
        cmd += ["--input-cache", cache]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results, reports = [], []
    try:
        for _ in range(n):
            out = run_once(cmd, env, deadline)
            sys.stdout.write("".join(line + "\n" for line in out[:-1]))
            results.append(out[-1])
            reports += [json.loads(line)["report"] for line in out[:-1]
                        if line.startswith('{"report"')]
    finally:
        if os.path.exists(cache):
            os.remove(cache)
    combined = combine(results)
    # The processes compress the same inputs, so their archives must agree.
    if len({r.get("archive_digest") for r in reports}) > 1:
        combined["correct"] = False
    print(json.dumps(combined))
    sys.stdout.flush()


def run_once(cmd, env, deadline):
    """One benchmark process; returns its output lines, the result last."""
    # Its own process group, so a timeout also stops the one-worker re-exec
    # that a traced run starts.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: benchmark exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    lines[-1] = result
    return lines


def combine(results):
    """One result from several processes' results: counts add up, each
    metric is the median of its values."""
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}

if __name__ == "__main__":
    main()
