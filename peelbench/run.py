#!/usr/bin/env python3
"""Builds and runs the simulator benchmark (see peelbench/README.md).

    python3 peelbench/run.py --workload fig5-packet --seed 1 --seconds 20 --trace 0
    python3 peelbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark is built from source with CMake
(Release) into $CARGO_TARGET_DIR/peelbench, default .bench_build/peelbench.
The last line of stdout is the run's JSON result; `--workload all` runs every
workload in turn and prints one result line per workload.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig5-packet", "flow-tenancy", "fig7-flap")
END_TO_END = ("setup_s", "collectives_per_s", "peak_rss_mib",
              "sim_cct_p50_us", "sim_cct_p90_us")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "peelbench")


def build(bdir):
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", bdir, "--target", "peelbench",
                      "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "peelbench")


def run_one(binary, args, workload):
    """Runs one workload; echoes its report and returns its parsed result."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            os.path.dirname(binary), "trace-%s-%d.json" % (workload, args.seed))]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        raise RuntimeError("peelbench exited with %d" % done.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("malformed result line: " + lines[-1])
    if not args.trace and set(result["metrics"]) != set(END_TO_END):
        raise RuntimeError("end-to-end metrics missing: " + lines[-1])
    for line in lines[:-1]:
        print(line)
    return lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        binary = build(build_dir())
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_one(binary, args, w) for w in workloads]
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as err:
        print("run.py: %s" % err, file=sys.stderr)
        return 1
    for line in results:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
