#!/usr/bin/env python3
"""Smoke self-test of the leobench benchmark at a tiny input size.

    python3 leobench/smoke_test.py

Run from the root of a source checkout (it builds through run.py). For every
workload in BENCHMARK.json it runs run.py --tiny with tracing off and on, and
checks that the run is correct and that every end-to-end (tracing off) or
per-layer (tracing on) metric is printed by name with its unit, both in the
human-readable lines and in the JSON result. Then it checks that a
deliberately perturbed reference verdict is reported as a failure. Exits
non-zero on the first problem.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit("FAIL %s trace=%d: exit %d\n%s" %
                 (workload, trace, proc.returncode, proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(workload, trace, human, result, expected):
    got = result["metrics"]
    if set(got) != {m["name"] for m in expected}:
        sys.exit("FAIL %s trace=%d: metrics %s, expected %s" %
                 (workload, trace, sorted(got),
                  sorted(m["name"] for m in expected)))
    for m in expected:
        value = got[m["name"]]
        if value["unit"] != m["unit"] or not math.isfinite(value["value"]):
            sys.exit("FAIL %s trace=%d: bad metric %s: %s" %
                     (workload, trace, m["name"], value))
        printed = any(line.split()[:1] == [m["name"]] and
                      line.split()[-1] == m["unit"] for line in human)
        if not printed:
            sys.exit("FAIL %s trace=%d: %s not printed with unit %s" %
                     (workload, trace, m["name"], m["unit"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace, expected in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            human, result = run(w["name"], trace)
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                sys.exit("FAIL %s trace=%d: run not correct: %s" %
                         (w["name"], trace, {k: result[k] for k in
                                             ("correct", "attempted",
                                              "failed")}))
            check_metrics(w["name"], trace, human, result, expected)
            print("ok   %-24s trace=%d  %d metrics" %
                  (w["name"], trace, len(expected)))
    name = bench["workloads"][0]["name"]
    _, result = run(name, 0, "--perturb-reference")
    if result["correct"] or result["failed"] != result["attempted"] or \
            result["attempted"] < 1:
        sys.exit("FAIL perturbed reference not reported as a failure: %s" %
                 {k: result[k] for k in ("correct", "attempted", "failed")})
    print("ok   %-24s perturbed reference fails every trace" % name)
    print("smoke test passed")


if __name__ == "__main__":
    main()
