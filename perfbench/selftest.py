#!/usr/bin/env python3
"""Self-test of the GRETA benchmark.

Runs every workload at small size in both modes and asserts that each metric
BENCHMARK.json declares is emitted with its declared unit (and nothing
else), that end-to-end values are non-zero, and that no operation failed.
A negative case corrupts one result row and asserts the correctness gate
counts exactly that one failure and makes the binary exit non-zero.

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    bench = run.load_benchmark()
    run.build()
    problems = []

    def small_run(workload, trace, extra=()):
        cmd = run.bench_command(workload, 1, 1, trace, ["--small", *extra])
        return run.run_bench(cmd, echo=False)

    # q1_single and q1_paced are runnable but not in BENCHMARK.json (see
    # README.md, "Steadiness").
    for w in [w["name"] for w in bench["workloads"]] + ["q1_single",
                                                         "q1_paced"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            where = "%s --trace %d" % (w, trace)
            res = small_run(w, trace)
            if res is None:
                problems.append("%s: no result" % where)
                continue
            declared = {m["name"]: m["unit"] for m in bench[key]}
            emitted = {k: v["unit"] for k, v in res["metrics"].items()}
            for name in sorted(declared.keys() | emitted.keys()):
                if declared.get(name) != emitted.get(name):
                    problems.append("%s: metric %s declared with unit %r, "
                                    "emitted with %r" % (where, name,
                                                         declared.get(name),
                                                         emitted.get(name)))
            if trace == 0:
                for name, m in res["metrics"].items():
                    if not m["value"] > 0:
                        problems.append("%s: %s is %r" % (where, name,
                                                          m["value"]))
            if res["failed"] != 0 or res["correct"] is not True:
                problems.append("%s: %d of %d operations failed" % (
                    where, res["failed"], res["attempted"]))
            print("ok" if not problems else "..", where, flush=True)

    # The gate must bite: one corrupted row is one failed operation, and the
    # binary exits non-zero.
    cmd = run.bench_command("q1_single", 1, 1, 0, ["--small", "--corrupt", "1"])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if res["failed"] != 1 or res["correct"] is not False or run.passed(res):
        problems.append("a corrupted result row was not counted as exactly "
                        "one failure: %r" % res)
    elif proc.returncode == 0:
        problems.append("the binary exited 0 after a failed correctness gate")
    else:
        print("ok corrupted row counted: failed=%d of %d, exit status %d" % (
            res["failed"], res["attempted"], proc.returncode))

    for p in problems:
        print("FAIL", p)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
