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

  check_bench.py pairs REV --workload W [--pairs 10] [--seconds 20]
                 [--seed S] [--trace 0|1]
      Measures the working tree against commit REV on one workload.
      REV's committed files are extracted with git archive into a
      temporary directory, and each tree runs its own perfbench/run.py
      (and so its own build). Each pair runs both sides once on the same
      seed, alternating which side runs first. Prints, per metric, each
      side's median and quartiles, the pairs the working tree won (ties
      count for neither side) and a verdict: "gain" when the working tree
      won at least 9/10 of the pairs and its median is better by more
      than REV's interquartile range, "WORSE" when its median is worse
      than REV's by more than the metric's bound in BENCHMARK.json (end-
      to-end metrics only), "unresolved" when REV's interquartile range
      is wider than that bound and not every run of the working tree
      reads better than every run of REV, else "no gain". Exits 1 when a
      run is not correct or fails a request.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

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


def run_side(tree, workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=tree, text=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    if done.returncode != 0:
        sys.exit(f"{tree}: perfbench failed:\n{done.stderr}")
    res = json.loads(done.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{tree}: correct={res['correct']} failed={res['failed']}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def pairs(rev, workload, n, seconds, seed, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if trace else "end_to_end"]
    with tempfile.TemporaryDirectory(prefix="check_bench-") as tmp:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                                 check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = {"base": [], "new": []}
        trees = {"base": tmp, "new": ROOT}
        for i in range(n):
            order = ("base", "new") if i % 2 == 0 else ("new", "base")
            for side in order:
                sides[side].append(run_side(trees[side], workload, seed,
                                            seconds, trace))
            print(f"pair {i + 1}/{n} done ({order[0]} first)",
                  file=sys.stderr)
    print(f"{workload}, {n} pairs, seed {seed}, {seconds} s, --trace {trace}:"
          f" {rev} (base) vs working tree (new)")
    print(f"every run correct, 0 failed requests ({2 * n} runs)")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        b = [r[name] for r in sides["base"]]
        c = [r[name] for r in sides["new"]]
        bq = statistics.quantiles(b, n=4, method="inclusive")
        cq = statistics.quantiles(c, n=4, method="inclusive")
        won = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        gain = (cq[1] - bq[1]) * (-1 if lower else 1)
        bound = m.get("bound")
        all_better = max(c) < min(b) if lower else min(c) > max(b)
        verdict = "no gain"
        if won >= 0.9 * n and gain > bq[2] - bq[0]:
            verdict = "gain"
        elif bound is not None and -gain > bound * bq[1]:
            verdict = "WORSE"
        elif (bound is not None and bq[2] - bq[0] > bound * bq[1]
              and not all_better):
            verdict = "unresolved"
        print(f"{name:26} base {bq[1]:10.4g} [{bq[0]:.4g}, {bq[2]:.4g}]"
              f"  new {cq[1]:10.4g} [{cq[0]:.4g}, {cq[2]:.4g}] {m['unit']:5}"
              f" won {won}/{n}  {verdict}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("command", choices=("record", "compare", "pairs"))
    p.add_argument("file", nargs="?", help="record: OUT.json; "
                   "compare: NEW.json; pairs: the base commit REV")
    p.add_argument("--workload", help="pairs: the workload to run")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.command == "pairs":
        if not a.file or not a.workload or a.pairs < 2:
            p.error("pairs needs REV, --workload and --pairs >= 2")
        return pairs(a.file, a.workload, a.pairs, a.seconds, a.seed,
                     a.trace)
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
