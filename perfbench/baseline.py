"""Measure the benchmark on the current checkout and write perfbench/baseline.json.

    python3 perfbench/baseline.py

For each workload: two sets of untraced runs, each one run for each of
seeds 1-10, one set after the other.  For each set and end-to-end metric it
records the median, the quartiles and the spread (Q3 - Q1) / median, as
statistics.quantiles(n=4) gives them; across the sets, the ratio of the
second median to the first, and the machine noise alone: the median of
|second / first - 1| over runs of the same seed, whose inputs are
identical, and the spread of the plain wall times that the run line
gives for comparison.  Then one traced run (per-layer metrics and the tracing
overhead).  Also records the context: git commit, Python, mpmath backend,
nproc, CPU model and the src/lenswrt line count.  Runs one process at a
time and takes about 35 minutes.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
NOISE_NOTE = (
    "While this benchmark was scoped, rank L(15,2) repeated in one process took 0.68-0.88 s, and "
    "0.54-0.89 s over 60 s on a later check, with CPU time equal to wall time: the spread comes from "
    "the machine, not from scheduling, and slow stretches last several seconds."
)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2].removeprefix("perfbench: "))
    return json.loads(lines[-1]), info


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    except OSError:
        return "unknown"


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seeds = list(SEEDS)
    doc = {"context": {"commit": git_commit(), "cpu": cpu_model()}, "noise": NOISE_NOTE, "seeds": seeds,
           "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        sets = []
        for set_number in (1, 2):
            results = []
            for seed in seeds:
                result, info = run(name, seed, spec["run_seconds"], 0)
                print(name, set_number, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                      flush=True)
                results.append((result, info))
            sets.append(results)
        traced, traced_info = run(name, seeds[0], spec["run_seconds"], 1)
        doc["context"].update({k: traced_info[k] for k in ("python", "mpmath_backend", "nproc", "src_lines")})
        runs = sets[0] + sets[1]
        end_to_end = {}
        for metric in spec["end_to_end"]:
            metric_name = metric["name"]
            first, second = ([r["metrics"][metric_name]["value"] for r, _ in results] for results in sets)
            end_to_end[metric_name] = {
                "bound": metric["bound"],
                "set1": spread(first),
                "set2": spread(second),
                "median_ratio": statistics.median(second) / statistics.median(first),
                "same_seed_noise": statistics.median(abs(b / a - 1) for a, b in zip(first, second)),
            }
            if metric_name in runs[0][1]["raw"]:  # the plain wall times, for comparison
                end_to_end[metric_name]["raw_spread"] = [spread([i["raw"][metric_name] for _, i in results])["spread"]
                                                         for results in sets]
        doc["workloads"][name] = {
            "why": workload["why"],
            "correct": all(r["correct"] for r, _ in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "op_samples": sorted({i["op_samples"] for _, i in runs}),
            "tail_percentile": sorted({i["tail_percentile"] for _, i in runs}),
            "samples_beyond_tail": sorted({i["samples_beyond_tail"] for _, i in runs}),
            "batches": [i["batches"] for _, i in runs],
            "end_to_end": end_to_end,
            "traced": {"seed": seeds[0], "spans": traced_info["spans"],
                       "trace_pairs": traced_info["trace_pairs"],
                       "pair_ratios": traced_info["pair_ratios"],
                       "traced_wall_s": traced_info["traced_wall_s"],
                       "untraced_wall_s": traced_info["untraced_wall_s"],
                       "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
        with open(os.path.join(HERE, "baseline.json"), "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
