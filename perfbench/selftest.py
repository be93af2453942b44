#!/usr/bin/env python3
"""Short-length self-test of the serve-path benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json for SECONDS seconds, untraced and
traced, from the root of the repository, and checks that:
  * each run is correct, with no failed request;
  * every metric BENCHMARK.json names is emitted with its unit, and the
    report line gives its sample count;
  * at the full run length of BENCHMARK.json, latency_p99_ms would have at
    least ten samples beyond it (the short run's rate, extrapolated).
Exits 1 if any check fails, after printing every failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = 6


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", "1", "--seconds", str(SECONDS),
               "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return None, None
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s trace=%d" % (workload, trace)
            report, result = run(workload, trace)
            if result is None:
                problems.append("%s: run failed" % label)
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: incorrect (%d of %d failed)" % (
                    label, result["failed"], result["attempted"]))
            for metric in bench[key]:
                name = metric["name"]
                emitted = result["metrics"].get(name)
                if emitted is None:
                    problems.append("%s: %s missing" % (label, name))
                elif emitted["unit"] != metric["unit"]:
                    problems.append("%s: %s has unit %s, not %s" % (
                        label, name, emitted["unit"], metric["unit"]))
                if name not in report["samples"]:
                    problems.append("%s: %s has no sample count" % (
                        label, name))
            if set(result["metrics"]) != {m["name"] for m in bench[key]}:
                problems.append("%s: metrics beyond BENCHMARK.json" % label)
            if trace == 0:
                samples = report["samples"]["latency_p99_ms"]
                full = samples * bench["run_seconds"] / SECONDS
                beyond = full - math.ceil(0.99 * full)
                print("%-14s p99: %d samples in %gs -> about %d at %ds, "
                      "%d beyond p99" % (workload, samples, SECONDS,
                                         full, bench["run_seconds"], beyond))
                if beyond < 10:
                    problems.append("%s: latency_p99_ms would have only %d "
                                    "samples beyond it" % (workload, beyond))
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
