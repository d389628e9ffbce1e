#!/usr/bin/env python3
"""Entry point of the OVS performance benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload datagen_manhattan --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all       # every workload in turn
    python3 perfbench/run.py --selftest           # the output checker's self-test

Every call configures and builds perfbench/CMakeLists.txt (the OVS
libraries, ovs_served and the runner, Release) under .bench_build/; after
the first, that is an incremental no-op. Each workload runs in its own runner process.
The last stdout line is the result object: {"correct", "attempted",
"failed", "metrics"}. With --trace 1 the metrics are the per-layer ones.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["datagen_manhattan", "fit_synthetic3x3", "serve_open_loop"]
RUNNER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the runner and ovs_served."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        jobs = str(min(4, os.cpu_count() or 1))
        steps = [["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench_runner", "ovs_served"]]
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return (os.path.join(BUILD, "perfbench_runner"),
            os.path.join(BUILD, "ovs_src", "serve", "ovs_served"))


def run_binary(argv):
    """Runs the runner in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("runner timed out: " + " ".join(argv))
    return proc.returncode, out


def run_workload(runner, served, workload, seed, seconds, trace):
    work_dir = os.path.join(ROOT, ".bench_build", "work", workload)
    os.makedirs(work_dir, exist_ok=True)
    code, out = run_binary([runner, "--workload", workload, "--seed",
                            str(seed), "--seconds", str(seconds), "--trace",
                            str(trace), "--work_dir", work_dir, "--served",
                            served])
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        fail("%s exited with code %d" % (workload, code))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s printed no result" % workload)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")

    runner, served = build()
    if args.selftest:
        code, out = run_binary([runner, "--workload", "selftest"])
        sys.stdout.write(out)
        sys.exit(code)

    if args.workload != "all":
        result = run_workload(runner, served, args.workload, args.seed,
                              args.seconds, args.trace)
        print(json.dumps(result))
        return

    # Every workload in turn, each in its own process; the last line joins
    # their results, metric names prefixed with the workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(runner, served, workload, args.seed,
                              args.seconds, args.trace)
        print("%s: %s" % (workload, json.dumps(result)))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "/" + name] = metric
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
