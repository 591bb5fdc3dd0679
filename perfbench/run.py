#!/usr/bin/env python3
"""GRETA benchmark entry point.

Builds the benchmark binary (perfbench/CMakeLists.txt, Release, into .bench_build/)
from the repository's sources, then runs one workload:

    python3 perfbench/run.py --workload q1_single --seed 1 --seconds 30 --trace 0

The binary's last stdout line is the JSON result. Two more modes run many
workloads, interleaved across repetitions (w1 w2 w3 w1 w2 w3 ...), one seed
per repetition:

    # median and quartiles of every end-to-end metric, per workload
    python3 perfbench/run.py --repeat 10 [--workloads a,b] [--seconds S]
    # two sets of runs of the same code: fails when a set's spread or the
    # move between the sets' medians exceeds a bound in BENCHMARK.json
    python3 perfbench/run.py --agree 5 [--workloads a,b] [--seconds S]
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "greta_perfbench")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark binary; exits non-zero when it cannot."""
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "engine.h")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log("perfbench: %s is missing; run from a full checkout" % needed)
            sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target",
                      "greta_perfbench", "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                log("perfbench: build step failed: %s" % " ".join(cmd))
                sys.exit(3)


def bench_command(workload, seed, seconds, trace, extra=()):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    return cmd + list(extra)


def run_bench(cmd, echo=True):
    """Runs the benchmark binary; returns its parsed result line, or None.

    The binary exits 1 after printing a result in which an operation failed,
    so a result is parsed whatever the exit status; passed() judges it.
    """
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out: %s" % " ".join(cmd))
        return None
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: benchmark binary exited with %d and no result"
            % proc.returncode)
        return None


def passed(res):
    """True for a result whose correctness gate held."""
    return res is not None and res["correct"] is True and res["failed"] == 0


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the acceptance check takes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_set(workloads, seeds, seconds, label):
    """One result dict per (workload, seed), workloads interleaved."""
    results = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            res = run_bench(bench_command(w, seed, seconds, 0), echo=False)
            if not passed(res):
                log("%s %s seed %d: FAILED %s" % (label, w, seed, res))
                sys.exit(1)
            results[w].append(res["metrics"])
            log("%s %s seed %d: %s" % (label, w, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())))
    return results


def summarize(results, bounds):
    """Prints each metric's median and quartiles; false when a spread exceeds
    its bound."""
    ok = True
    for w, runs in results.items():
        print("workload %s (%d runs)" % (w, len(runs)))
        for name, bound in bounds.items():
            med, q1, q3, rel = spread([r[name]["value"] for r in runs])
            within = rel <= bound
            ok &= within
            note = ("" if rel <= bound / 3 else "  above a third of the bound"
                    if within else "  ABOVE THE BOUND")
            print("  %-18s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.1f%% "
                  "of median (bound %4.0f%%)%s" % (
                      name, med, q1, q3, 100 * rel, 100 * bound, note))
    return ok


def agree(set_a, set_b, metrics):
    """Compares the two sets' medians; false when any moved, in either
    direction, by more than its metric's bound."""
    ok = True
    for w in set_a:
        print("workload %s: set B vs set A" % w)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = statistics.median(r[name]["value"] for r in set_a[w])
            b = statistics.median(r[name]["value"] for r in set_b[w])
            moved = (b - a) / a
            fine = abs(moved) <= bound
            ok &= fine
            print("  %-18s A %12.6g  B %12.6g  moved %+6.1f%% "
                  "(bound %3.0f%%) %s" % (name, a, b, 100 * moved,
                                           100 * bound,
                                           "agree" if fine else "DISAGREE"))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--repeat", type=int, help="runs per workload")
    p.add_argument("--agree", type=int, help="runs per workload and set")
    p.add_argument("--workloads", help="comma-separated subset")
    args = p.parse_args()

    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    build()
    if args.workload:
        res = run_bench(bench_command(args.workload, args.seed, seconds,
                                        args.trace))
        return 0 if passed(res) else 1

    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.repeat:
        seeds = range(args.seed, args.seed + args.repeat)
        results = run_set(workloads, seeds, seconds, "run")
        return 0 if summarize(results, bounds) else 1
    if args.agree:
        seeds = list(range(args.seed, args.seed + args.agree))
        set_a = {w: [] for w in workloads}
        set_b = {w: [] for w in workloads}
        for i, seed in enumerate(seeds):
            # Alternate which set runs first at each repetition.
            order = [("A", set_a), ("B", set_b)][:: 1 if i % 2 == 0 else -1]
            for label, target in order:
                for w, runs in run_set(workloads, [seed], seconds,
                                       label).items():
                    target[w] += runs
        print("set A:")
        ok = summarize(set_a, bounds)
        print("set B:")
        ok &= summarize(set_b, bounds)
        ok &= agree(set_a, set_b, bench["end_to_end"])
        return 0 if ok else 1
    p.error("give --workload, --repeat or --agree")
    return 2


if __name__ == "__main__":
    sys.exit(main())
