"""One benchmark process: set up a workload, run its batch once, report JSON.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|batch|traced
                                [--spawned T] [--tiny]

--spawned is the parent's time.monotonic() just before it started this
process (a system-wide clock on Linux), so setup_s covers interpreter
start, `import lenswrt` and input generation up to the first timed call.
Mode `setup` stops there.  The last stdout line is one JSON object.

The process samples its own speed from its first line on (speed.py):
setup_s, wall_s and the op latencies are reported in seconds at the
reference speed, and raw_setup_s, raw_wall_s and raw_latencies as the
plain wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import Sampler  # noqa: E402
from workloads import OUT_DIR, ROOT, WORKLOADS, CliRunner, build_ops, cli_env, make_inputs, run_ops  # noqa: E402

SRC = os.path.join(ROOT, "src")
EXPECTED_INIT = os.path.realpath(os.path.join(SRC, "lenswrt", "__init__.py"))


class WrongImport(Exception):
    pass


def import_checkout_lenswrt():
    """Import lenswrt from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC)
    import lenswrt
    import lenswrt.cli  # noqa: F401  (loads every module before tracing patches them)

    if os.path.realpath(lenswrt.__file__) != EXPECTED_INIT:
        raise WrongImport(f"imported {lenswrt.__file__}, expected {EXPECTED_INIT}")
    return lenswrt


def check_child_import():
    """The CLI children must import the same copy."""
    probe = subprocess.run(
        [sys.executable, "-c", "import lenswrt; print(lenswrt.__file__)"],
        cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=60,
    )
    path = probe.stdout.strip()
    if probe.returncode != 0 or os.path.realpath(path) != EXPECTED_INIT:
        raise WrongImport(f"CLI children import {path or probe.stderr.strip()!r}, expected {EXPECTED_INIT}")


def interpreter_import_s(repeats: int = 3) -> float:
    """Fresh-interpreter `import lenswrt.cli` minus a bare interpreter start, medians."""

    def median_run(code):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_env(), check=True, timeout=60)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return median_run("import lenswrt.cli") - median_run("pass")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "batch", "traced"), default="batch")
    parser.add_argument("--spawned", type=float, default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    sampler = Sampler()
    sampler.start()
    spawned = time.monotonic() if args.spawned is None else args.spawned
    traced = args.mode == "traced"
    cli = args.workload == "cli-acceptance"

    try:
        lenswrt = import_checkout_lenswrt()
        if cli:
            check_child_import()
    except (ImportError, WrongImport) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    inputs = make_inputs(args.workload, args.seed, args.tiny)
    runner = CliRunner(traced, sampler) if cli else None
    ops = build_ops(args.workload, inputs, lenswrt, runner)
    tracer = None
    if traced and not cli:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    raw_setup_s = time.monotonic() - spawned
    probes = sampler.summary()  # every probe so far fell in set-up
    report = {"setup_s": (raw_setup_s - probes["probe_s"]) * probes["speed"], "raw_setup_s": raw_setup_s,
              "lenswrt_file": lenswrt.__file__}
    if args.mode != "setup":
        report.update(run_batch(args.workload, ops, tracer, runner, sampler))
    sampler.stop()
    print(json.dumps(report))
    return 0


def run_batch(workload, ops, tracer, runner, sampler) -> dict:
    result = run_ops(ops, tracer, sampler)
    who = resource.RUSAGE_CHILDREN if runner is not None else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload}.bin"))
        result["layers"] = tracer.totals()
        result["spans"] = tracer.span_count
    elif runner is not None and runner.traced:
        from tracing import merge_totals

        result["layers"] = merge_totals(part["totals"] for part in runner.trace_parts)
        result["spans"] = sum(part["spans"] for part in runner.trace_parts)
        result["criteria"] = {k: v for part in runner.trace_parts for k, v in part["criteria"].items()}
        result["cli_commands"] = runner.commands
        sampler.pause()  # the children below are timed plainly
        result["cli_import_s"] = interpreter_import_s()
    return result


if __name__ == "__main__":
    sys.exit(main())
