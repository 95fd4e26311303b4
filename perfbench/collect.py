#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root; runs are made one at a time:

    python3 perfbench/collect.py --workloads scan ode --seeds 1-5
    python3 perfbench/collect.py --baseline perfbench/baseline.json

For each workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.
``--baseline`` runs ten seeds per workload, one traced run per workload and
the single-job ROADMAP rows, and writes everything to one JSON file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["info"] = [line for line in proc.stdout.splitlines() if line.startswith("info ")]
    return result


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def collect(workloads, seeds, seconds, spec, log) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    for w in workloads:
        runs = []
        for s in seeds:
            r = run_once(w, s, seconds, 0)
            runs.append(r)
            log(f"{w} seed {s}: correct={r['correct']} attempted={r['attempted']} "
                f"failed={r['failed']} wall={r['wall_s']:.1f}s "
                + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()))
        metrics = {}
        for name in runs[0]["metrics"]:
            summary = summarise([r["metrics"][name]["value"] for r in runs])
            summary["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = summary
            bound = bounds.get(name)
            flag = "" if bound is None else (
                "ok" if summary["spread"] < bound / 3 else
                "WITHIN-BOUND" if summary["spread"] <= bound else "OVER-BOUND")
            log(f"  {w:9s} {name:12s} median {summary['median']:.5g} {summary['unit']:4s} "
                f"spread {summary['spread']:.4f} bound {bound} {flag}")
        out[w] = {"seeds": seeds, "correct": all(r["correct"] for r in runs),
                  "attempted": [r["attempted"] for r in runs],
                  "failed": [r["failed"] for r in runs],
                  "run_wall_s": [round(r["wall_s"], 2) for r in runs],
                  "info": runs[0]["info"], "metrics": metrics}
    return out


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+")
    p.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    p.add_argument("--baseline", metavar="PATH",
                   help="ten seeds, traced runs and ROADMAP rows, written to PATH")
    args = p.parse_args()
    spec = load_spec()
    seconds = spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = seed_list(args.seeds)

    def log(line):
        print(line, flush=True)

    end_to_end = collect(workloads, seeds, seconds, spec, log)
    if not args.baseline:
        return 0
    traced = {}
    for w in workloads:
        r = run_once(w, seeds[0], seconds, 1)
        traced[w] = {"seed": seeds[0], "correct": r["correct"], "attempted": r["attempted"],
                     "metrics": {k: v for k, v in r["metrics"].items()}}
        log(f"{w} traced: " + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()
                                       if v["value"]))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--roadmap"],
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
    rows = json.loads(proc.stdout.strip().splitlines()[-1])["single_jobs"]
    doc = {"commit": git_sha(), "date": time.strftime("%Y-%m-%d"),
           "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "platform": platform.platform()},
           "run_seconds": seconds, "end_to_end": end_to_end, "per_layer": traced,
           "roadmap_rows": rows}
    with open(args.baseline, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    log(f"wrote {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
