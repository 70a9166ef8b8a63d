#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the benchmark
(perfbench/main.exe) and the tdrepair CLI with dune, runs the workload in
a process of its own, checks that it reported exactly the metrics
BENCHMARK.json declares, and prints

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

as the last line of standard output.  Workload and metric documentation:
perfbench/workloads.json.  Exits non-zero, printing no result, when the
checkout cannot be built, a run fails its oracle, or the output does not
match the declared schema.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
OUT_DIR = ".perfbench"
EXE = "_build/default/perfbench/main.exe"
TDREPAIR = "_build/default/bin/tdrepair.exe"


def die(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def stop_group(proc):
    """Kill the workload's process group (the serve-mix daemon included)
    and wait until every member has gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "perfbench/workloads.json", "dune-project",
                   "lib", "bin/tdrepair.ml"):
        if not os.path.exists(os.path.join(root, needed)):
            die(2, f"{needed} not found: run from the root of a source checkout")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open("perfbench/workloads.json") as f:
        docs = json.load(f)["workloads"]
    if args.workload not in docs:
        die(2, f"unknown workload {args.workload!r}")

    # Build inside the checkout only: no shared dune cache outside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/tdrepair.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        die(2, "build failed")

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(root, OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    cmd = [os.path.join(root, EXE), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tdrepair", os.path.join(root, TDREPAIR),
           "--out", os.path.join(root, OUT_DIR), "--tmp", tmp]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        shutil.rmtree(tmp, ignore_errors=True)
        die(3, f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    stop_group(proc)
    shutil.rmtree(tmp, ignore_errors=True)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        die(1, f"{args.workload} failed (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)

    raw = json.loads(lines[-1])
    values = raw["values"]
    declared = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    unknown = sorted(set(values) - set(units))
    if unknown:
        die(4, f"undeclared metrics {unknown}")
    if args.trace == 0:
        expected = set(units)
    else:
        # Layers a workload does not call into read 0 (see workloads.json).
        expected = set(docs[args.workload]["per_layer"])
        values = {name: values.get(name, 0.0) for name in units}
    missing = sorted(expected - set(raw["values"]))
    if missing:
        die(4, f"metrics not reported: {missing}")
    for name, v in values.items():
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
            die(4, f"metric {name} has the invalid value {v!r}")
        if args.trace == 0 and v == 0:
            die(4, f"end-to-end metric {name} is 0")

    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())},
    }))


if __name__ == "__main__":
    main()
