#!/usr/bin/env python3
"""Builds and runs the leobench benchmark for one workload.

    python3 leobench/run.py --workload tpcc_ser --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and builds
leobench/CMakeLists.txt (the leopard libraries, leopard_serve and the
leobench binary) into .bench_build/leobench; later runs only check the build
is current. Workload parameters come from leobench/spec.json. The last line
of stdout is the JSON result; the exit code is non-zero when no result could
be produced (for example when the source tree is missing).

Extra flags: --tiny shrinks the corpus (smoke testing), --perturb-reference
adds one CR violation to the reference verdict so every pass must fail.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "leobench")
RUN_TIMEOUT_S = 160
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("leobench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no leopard source tree next to leobench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "leobench", "leopard_serve",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def flags_for(workload, tiny):
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    if workload not in spec["workloads"]:
        fail("unknown workload " + workload)
    params = dict(spec["workloads"][workload]["params"])
    if tiny:
        div = spec["tiny_txns_divisor"]
        params["txns"] = max(50, params["txns"] // div)
        params["checkpoint_every"] = max(100, params["checkpoint_every"] // div)
    out = []
    for key, value in params.items():
        out += ["--" + key.replace("_", "-"), str(value)]
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--perturb-reference", action="store_true")
    args = ap.parse_args()

    build()
    scratch = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    cmd = [os.path.join(BUILD, "leobench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve", os.path.join(BUILD, "leopard_tools", "leopard_serve"),
           "--scratch", scratch] + flags_for(args.workload, args.tiny)
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    # Own process group: a timeout kills leobench and any leopard_serve child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
        fail("run timed out")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(scratch))  # only when no other run uses it
    except OSError:
        pass
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or \
            set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        fail("leobench exited %d without a result" % proc.returncode)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
