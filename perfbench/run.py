#!/usr/bin/env python3
"""Runs one perfbench workload and prints its metrics as one JSON line.

Run from the repository root:

  python3 perfbench/run.py --workload philly-2048 --seed 1 --seconds 30 --trace 0

The first call configures and builds perfbench/ (a CMake project built
against src/) into build-perfbench/. Each repetition of the workload runs in
its own process (build-perfbench/perfbench), which prints what it measured
and checked; outputs go to perfbench-out/.

--trace 0 repeats the workload while another repetition still fits in
--seconds (at least once) and reports the median of each end-to-end metric
over the repetitions. --trace 1 runs the workload once untraced and once
traced, reports the traced run's per-layer metrics, and its overhead as
traced minus untraced wall_s (trace.overhead_s).

Human-readable lines come first; the last line of standard output is the JSON
result. Exit code 0 means the run completed (check "correct"); anything else
means the benchmark could not run at all.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
BUILD_DIR = "build-perfbench"
OUT_DIR = "perfbench-out"
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_LIMIT_S = 170  # Every run must end within 180 s of starting.


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        die("no src/ tree next to perfbench/; run from the repository root")
    os.makedirs(OUT_DIR, exist_ok=True)
    log_path = os.path.join(OUT_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                die(f"build failed: {' '.join(step)} (log: {log_path})", 1)


def run_rep(args, out, traced, deadline):
    """One workload repetition in its own process; returns its report."""
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--trace={int(traced)}", f"--out={out}"]
    os.makedirs(out, exist_ok=True)
    with open(out + ".stderr", "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                  timeout=max(5.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            die(f"{args.workload} repetition timed out (stderr: {out}.stderr)", 1)
    # Service state directories are large; the report, registry and spans stay.
    for state in glob.glob(os.path.join(out, "server-*")):
        shutil.rmtree(state, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"{' '.join(cmd)} exited {proc.returncode} (stderr: {out}.stderr)", 1)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        die("no BENCHMARK.json here; run from the repository root")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload '{args.workload}'")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    if args.trace:
        untraced = run_rep(args, os.path.join(out, "untraced"), False, deadline)
        traced = run_rep(args, os.path.join(out, "traced"), True, deadline)
        reps = [untraced, traced]
        metrics = dict(traced["metrics"])
        overhead = traced["metrics"]["wall_s"]["value"] - untraced["metrics"]["wall_s"]["value"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s", "samples": 0}
    else:
        reps = []
        while True:
            rep_start = time.monotonic()
            reps.append(run_rep(args, os.path.join(out, f"rep{len(reps)}"), False, deadline))
            now = time.monotonic()
            if now - start + (now - rep_start) > args.seconds:
                break
        metrics = {}
        for name in reps[0]["metrics"]:
            values = [rep["metrics"][name]["value"] for rep in reps]
            metrics[name] = dict(reps[0]["metrics"][name], value=statistics.median(values))

    result_metrics = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die(f"workload reported no metric {m['name']} in {m['unit']}")
        result_metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    errors = [e for rep in reps for e in rep["errors"]]
    result = {
        "correct": all(rep["correct"] for rep in reps),
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": result_metrics,
    }
    with open(os.path.join(out, "report.json"), "w") as f:
        json.dump({"repetitions": reps, "result": result}, f, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} outputs={out}")
    for m in wanted:
        got = metrics[m["name"]]
        samples = f"  (n={got['samples']})" if got.get("samples") else ""
        print(f"  {m['name']:<36} {got['value']:>16.6g} {m['unit']}{samples}")
    for error in errors:
        print(f"  check failed: {error}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
