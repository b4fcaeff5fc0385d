#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload bin_large --seed 1 --seconds 10 --trace 0

The driver (perfbench/driver.cpp) is built in Release against the
repository's analysis library under .bench_build/ at the repository root,
then run for --seconds on inputs generated from --seed. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the metrics are BENCHMARK.json's end_to_end list with
--trace 0 and its per_layer list with --trace 1.

Exits non-zero without printing a result when the build fails, the
driver fails or times out, or its result does not carry exactly the
metrics BENCHMARK.json lists.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    out = os.path.join(BUILD_DIR, "perfbench")
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(os.cpu_count() or 1, 4))
    for cmd in (
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def check_result(result, wanted):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("result must have exactly correct, attempted, failed, metrics")
    if not isinstance(result["correct"], bool):
        fail("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            fail(f"{key} must be a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        fail("metrics differ from BENCHMARK.json: got " +
             ", ".join(sorted(metrics)))
    for m in wanted:
        got = metrics[m["name"]]
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            fail(f"{m['name']}: unit {got.get('unit')!r}, want {m['unit']!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            fail(f"{m['name']}: value {value!r} is not a finite number")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    exe = build()
    # Relative to ROOT, so the server socket path stays short.
    run_dir = os.path.join(".bench_build", f"run-{os.getpid()}")
    os.makedirs(os.path.join(ROOT, run_dir), exist_ok=True)
    try:
        done = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--dir", run_dir],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    if done.returncode != 0:
        fail(f"driver exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"driver result is not JSON: {e}")
    check_result(result, wanted)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
