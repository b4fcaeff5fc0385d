#!/usr/bin/env python3
"""The perfbench baseline: record it, or compare against it.

  check_bench.py record [OUT.json]
      Runs perfbench/run.py for every BENCHMARK.json workload at --trace 0
      (end-to-end metrics) and --trace 1 (per-layer metrics), seeds 1-5,
      10 s each, and writes each metric's median, quartiles and runs, with
      the host's nproc, CPU model and git sha, to OUT.json (default
      bench/BASELINE.json). Seeds run in the outer loop, so slow drift
      spreads over every workload; a run that is not correct, or that
      fails a request, aborts the recording.

  check_bench.py compare [NEW.json]
      Compares a recording (NEW.json, or a fresh one) with
      bench/BASELINE.json. A metric is flagged when its median moved from
      the baseline median by more than the baseline's interquartile range;
      exits 1 when any flagged metric got worse.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "bench", "BASELINE.json")
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 10


def sh(*cmd):
    return subprocess.run(cmd, cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def cpu_model():
    with open("/proc/cpuinfo") as f:
        return next((line.split(":", 1)[1].strip() for line in f
                     if line.startswith("model name")), "unknown")


def record():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    kinds = {0: spec["end_to_end"], 1: spec["per_layer"]}
    runs = {}  # (workload, metric) -> values
    for seed in SEEDS:
        for w in spec["workloads"]:
            for trace in (0, 1):
                out = sh(sys.executable, "perfbench/run.py", "--workload",
                         w["name"], "--seed", str(seed), "--seconds",
                         str(SECONDS), "--trace", str(trace))
                res = json.loads(out.splitlines()[-1])
                if not res["correct"] or res["failed"]:
                    sys.exit(f"{w['name']} seed {seed} trace {trace}: "
                             f"correct={res['correct']} failed={res['failed']}")
                for m in kinds[trace]:
                    runs.setdefault((w["name"], m["name"]), []).append(
                        res["metrics"][m["name"]]["value"])
                print(f"{w['name']} seed {seed} trace {trace}: ok",
                      file=sys.stderr)
    dirty = sh("git", "status", "--porcelain", "--untracked-files=no")
    sha = sh("git", "rev-parse", "HEAD") + ("-dirty" if dirty else "")
    out = {"host": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "git_sha": sha}, "seconds": SECONDS,
           "seeds": list(SEEDS), "workloads": {}}
    for trace, metrics in kinds.items():
        for w in spec["workloads"]:
            for m in metrics:
                vals = runs[(w["name"], m["name"])]
                q1, med, q3 = statistics.quantiles(vals, n=4,
                                                   method="inclusive")
                out["workloads"].setdefault(w["name"], {})[m["name"]] = {
                    "unit": m["unit"], "better": m["better"],
                    "median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
                    "runs": vals}
    return out


def compare(base, new):
    worse = 0
    for wname, metrics in base["workloads"].items():
        for name, b in metrics.items():
            n = new["workloads"][wname][name]["median"]
            delta = n - b["median"]
            verdict = "within spread"
            if abs(delta) > b["iqr"]:
                is_worse = (delta > 0) == (b["better"] == "lower")
                verdict = "WORSE" if is_worse else "better"
                worse += is_worse
            print(f"{wname:14} {name:26} {b['median']:12.4g} "
                  f"[{b['q1']:.4g}, {b['q3']:.4g}] -> {n:12.4g} {b['unit']:5}"
                  f" {verdict}")
    print(f"check_bench: {worse} metric(s) worse than the baseline spread")
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("command", choices=("record", "compare"))
    p.add_argument("file", nargs="?", help="record: OUT.json; "
                   "compare: NEW.json")
    a = p.parse_args()
    if a.command == "record":
        result = record()  # Before opening: a failed run keeps the file.
        with open(a.file or BASELINE, "w") as f:
            f.write(json.dumps(result, indent=1) + "\n")
        return 0
    with open(BASELINE) as f:
        base = json.load(f)
    if not a.file:
        return compare(base, record())
    with open(a.file) as f:
        return compare(base, json.load(f))


if __name__ == "__main__":
    sys.exit(main())
