"""lenswrt benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each batch of a workload runs in a
fresh worker process (perfbench/worker.py), so every batch pays
interpreter start, `import lenswrt` and cold caches, like a new session.
Batches of the same inputs repeat while the next one fits in --seconds
(at least one), and extra set-up-only processes bring the set-up samples
to SETUP_SAMPLES.

Every timing is in seconds at a fixed reference speed: wall time, less
the speed probes, times the speed that probes in the measured process
itself saw (speed.py).  The hosts this runs on are shared, and another
tenant's load slows them down by up to 2x for minutes at a time; plain
wall times are on the run line for comparison.
--trace 0 prints the end-to-end metrics: wall_s is the median batch, an
op's latency is its median over the run's batches, and op_p50_ms and
op_tail_ms are percentiles of those per-op latencies (Harrell-Davis).
--trace 1 runs pairs of one untraced and one traced batch, the order
alternating from pair to pair, and prints the per-layer metrics of the
median traced batch and the tracing overhead as the median traced batch
over the median untraced one.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Exits 2 without a result when this checkout's src/lenswrt is
missing or a worker cannot import it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from workloads import HERE, ROOT, WORKLOADS

SETUP_SAMPLES = 7
RUN_DEADLINE_S = 170  # every run ends well inside 180 s, whatever hangs
TRACE_PAIRS = 2  # pairs of untraced and traced batches, if they fit before the deadline
TAIL_BEYOND = 10  # op_tail_ms leaves at least this many per-op latencies above it


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, tiny: bool, timeout: float) -> dict:
    """Run one worker in its own process group; on timeout the whole group is killed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if tiny:
        cmd.append("--tiny")
    spawned = time.monotonic()
    cmd += ["--spawned", repr(spawned)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"{mode} worker exceeded {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {stderr.strip()[-400:]}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["elapsed_s"] = time.monotonic() - spawned
    return report


def quantile(values, pct: float) -> float:
    """The Harrell-Davis estimate of a percentile: a weighted mean of all order
    statistics, with beta-distribution weights centred on the percentile.
    With a few dozen samples it varies much less from run to run than the
    one order statistic of a nearest-rank percentile."""
    import mpmath

    ordered = sorted(values)
    n = len(ordered)
    a, b = pct / 100 * (n + 1), (1 - pct / 100) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


def tail_percentile(count: int) -> int:
    """The highest whole percentile that leaves at least TAIL_BEYOND of count samples above it."""
    return max([pct for pct in range(1, 100) if count - math.ceil(pct / 100 * count) >= TAIL_BEYOND],
               default=50)


def src_line_count() -> int:
    pkg = os.path.join(ROOT, "src", "lenswrt")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def context() -> dict:
    try:
        import mpmath.libmp

        backend = mpmath.libmp.BACKEND
    except ImportError:
        backend = "missing"
    return {"python": platform.python_version(), "mpmath_backend": backend, "nproc": os.cpu_count(),
            "src_lines": src_line_count()}


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool):
    """Run batches within the time budget; returns (batches, traced batches, setups, errors).

    Untraced, batches repeat while the next fits in `seconds`.  Traced,
    batches come in pairs (untraced, traced), then (traced, untraced), and
    so on, until TRACE_PAIRS pairs are done and `seconds` is spent, but no
    pair starts that could overrun the deadline.
    """
    start = time.monotonic()
    batches, traced, setups, errors = [], [], [], []
    longest = 0.0

    def elapsed():
        return time.monotonic() - start

    def run(mode):
        nonlocal longest
        report = spawn(workload, seed, mode, tiny, RUN_DEADLINE_S - elapsed())
        longest = max(longest, report["elapsed_s"])
        setups.append(report)
        return report

    try:
        if trace:
            while True:
                pair = ("batch", "traced") if len(traced) % 2 == 0 else ("traced", "batch")
                for mode in pair:
                    (traced if mode == "traced" else batches).append(run(mode))
                if len(traced) >= TRACE_PAIRS and elapsed() + 2 * longest > seconds:
                    break
                if elapsed() + 3 * longest > RUN_DEADLINE_S:
                    break
        else:
            batches.append(run("batch"))
            while elapsed() + longest < seconds:
                batches.append(run("batch"))
            while len(setups) < SETUP_SAMPLES:
                run("setup")
    except WorkerFailed as exc:
        errors.append(str(exc))
    return batches, traced, setups, errors


def op_latencies(batches, key: str = "latencies") -> list[float]:
    """Each op's latency: its median over the batches, which all run the same ops."""
    return [statistics.median(column) for column in zip(*(b[key] for b in batches))]


def end_to_end(batches, setups) -> tuple[dict, dict]:
    latencies = op_latencies(batches)
    pct = tail_percentile(len(latencies))
    values = {
        "wall_s": (statistics.median(b["wall_s"] for b in batches), "s"),
        "op_p50_ms": (1000 * quantile(latencies, 50), "ms"),
        "op_tail_ms": (1000 * quantile(latencies, pct), "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (statistics.median(b["peak_rss_mb"] for b in batches), "MB"),
    }
    beyond = len(latencies) - math.ceil(pct / 100 * len(latencies))
    raw = op_latencies(batches, "raw_latencies")
    info = {"tail_percentile": pct, "op_samples": len(latencies), "samples_beyond_tail": beyond,
            "batches": len(batches), "setup_samples": len(setups),
            "raw": {"wall_s": statistics.median(b["raw_wall_s"] for b in batches),
                    "op_p50_ms": 1000 * quantile(raw, 50), "op_tail_ms": 1000 * quantile(raw, pct),
                    "setup_s": statistics.median(s["raw_setup_s"] for s in setups)}}
    return values, info


def per_layer(batches, traced, names) -> tuple[dict, dict]:
    from tracing import layer_metrics

    chosen = sorted(traced, key=lambda b: b["wall_s"])[(len(traced) - 1) // 2]
    traced_wall = statistics.median(b["wall_s"] for b in traced)
    untraced_wall = statistics.median(b["wall_s"] for b in batches)
    values = layer_metrics(chosen["layers"], names)
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    values["cli.commands"] = chosen.get("cli_commands", 0)
    values["cli.import_s"] = chosen.get("cli_import_s", 0.0)
    for number, seconds in chosen.get("criteria", {}).items():
        values[f"selftest.c{number}_s"] = seconds
    info = {"trace_pairs": len(traced), "spans": chosen["spans"], "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
            "pair_ratios": [t["wall_s"] / u["wall_s"] for u, t in zip(batches, traced)]}
    return values, info


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lenswrt", "__init__.py")):
        sys.stderr.write(f"perfbench: no src/lenswrt under {ROOT}; run from a lenswrt checkout\n")
        return 2
    spec = load_spec()
    batches, traced, setups, errors = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    if not batches or (args.trace and not traced):
        sys.stderr.write("perfbench: " + "; ".join(errors or ["no batch completed"]) + "\n")
        return 2
    done = batches + traced
    attempted = sum(len(b["latencies"]) for b in done)
    failures = [f for b in done for f in b["failures"]]
    for failure in failures[:20]:
        sys.stderr.write(f"perfbench: FAILED {failure}\n")
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values, info = per_layer(batches, traced, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values["fail_ratio"] = len(failures) / attempted
    else:
        measured, info = end_to_end(batches, setups)
        names = [m["name"] for m in spec["end_to_end"]]
        units = {name: unit for name, (_, unit) in measured.items()}
        values = {name: value for name, (value, _) in measured.items()}
    info.update(context(), workload=args.workload, seed=args.seed, errors=errors,
                fail_ratio=len(failures) / attempted, lenswrt_file=batches[0]["lenswrt_file"])
    print("perfbench: " + json.dumps(info))
    result = {
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures) + len(errors),
        "metrics": {name: {"value": values.get(name, 0), "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
