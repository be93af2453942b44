#!/usr/bin/env python3
"""Serve-path benchmark: builds the daemon from this checkout, then runs one
workload and prints one JSON result as the last line of standard output.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

Run it from the root of the repository. Everything it builds or writes
stays inside the checkout: the build under $CARGO_TARGET_DIR (default
.bench_build), scenario files and traces under .bench_out. README.md in
this directory describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("warm_select", "churn")
HERE = os.path.dirname(os.path.abspath(__file__))
# Every run must end within 180 s; the steps share that budget.
BUILD_TIMEOUT_S = 840
GENERATE_TIMEOUT_S = 70
RUN_TIMEOUT_S = 100


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_root):
    """Configures once and builds serve_bench; returns its path."""
    build_dir = os.path.join(build_root, "perfbench")
    log_path = os.path.join(build_root, "perfbench-build.log")
    os.makedirs(build_root, exist_ok=True)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target",
                      "serve_bench", "-j3"])
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=log,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                fail("build step failed: %s" % error)
            if code != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (%s)" % " ".join(step))
    return os.path.join(build_dir, "serve_bench")


def run(command, timeout):
    try:
        return subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(command))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out_root = ".bench_out"
    # Scenario files and expected answers are the same on every seed, so
    # they are made once per build of serve_bench and dropped with the build
    # they came from.
    panel_name = "panel-%d" % os.stat(binary).st_mtime_ns
    os.makedirs(out_root, exist_ok=True)
    for entry in os.listdir(out_root):
        if entry.startswith("panel-") and entry != panel_name:
            shutil.rmtree(os.path.join(out_root, entry), ignore_errors=True)
    work = os.path.join(out_root, "run-%s-%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
    os.makedirs(work, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--panel", os.path.join(out_root, panel_name)]
    try:
        generated = run([binary, "generate"] + common + [
            "--digest", os.path.join(HERE, "answers.tsv")], GENERATE_TIMEOUT_S)
        if generated.returncode != 0:
            fail("generate failed")
        command = [binary, "run"] + common + [
            "--dir", work, "--seconds", repr(args.seconds),
            "--trace", str(args.trace)]
        if args.trace:
            command += ["--trace-out", os.path.join(
                out_root, "trace-%s-seed%d.json" % (args.workload, args.seed))]
        measured = run(command, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = measured.stdout.strip().splitlines()
    if measured.returncode != 0 or not lines:
        sys.stderr.write(measured.stdout)
        fail("run failed with exit code %d" % measured.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
