"""The benchmark's own tests: smoke runs, checks that bite, seeded inputs.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import lenswrt  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, build_ops, make_inputs, run_ops  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in spec()["per_layer" if trace == "1" else "end_to_end"]]
    assert list(result["metrics"]) == names
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "exact-analysis", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert make_inputs(workload, 11) == make_inputs(workload, 11)
    assert make_inputs(workload, 11) != make_inputs(workload, 12)
    assert make_inputs(workload, 11, tiny=True) == make_inputs(workload, 11, tiny=True)


def _failures(workload, monkeypatch, attr, corrupt, module=lenswrt):
    original = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *a, **k: corrupt(original(*a, **k)))
    result = run_ops(build_ops(workload, make_inputs(workload, 5, tiny=True), lenswrt))
    monkeypatch.undo()
    return result["failures"]


def test_corrupted_rank_is_a_failure(monkeypatch):
    assert _failures("exact-analysis", monkeypatch, "rank", lambda r: r + 1)


def test_corrupted_kernel_is_a_failure(monkeypatch):
    def drop_last_term(basis):
        vec = basis[0]
        comps = list(vec.components)
        last = comps[-1]
        comps[-1] = last + lenswrt.LaurentPoly("z", {max(last.terms) + 1: 1})
        return [type(vec)(components=tuple(comps))] + list(basis[1:])

    assert any("M*v" in f for f in _failures("exact-analysis", monkeypatch, "kernel", drop_last_term))


def test_corrupted_oracle_is_a_failure(monkeypatch):
    assert _failures("numeric-sweep", monkeypatch, "jeffrey_oracle", lambda v: v + 1e-7)


def test_raising_operation_is_a_failure(monkeypatch):
    def boom(*_args, **_kwargs):
        raise ArithmeticError("injected")

    monkeypatch.setattr(lenswrt, "recover_skein", boom)
    result = run_ops(build_ops("exact-analysis", make_inputs("exact-analysis", 5, tiny=True), lenswrt))
    assert any("injected" in f for f in result["failures"])


def test_changed_cli_output_is_a_failure():
    argv = ("--format", "text", "classify", "7")
    proc = subprocess.CompletedProcess(argv, 0, stdout=b"Determining\n", stderr=b"")
    good = workloads.output_digest(argv, proc.stdout)
    assert workloads._check_cli(argv, proc, good) is None
    assert workloads._check_cli(argv, proc, "0" * 64) is not None
    assert workloads._check_cli(argv, subprocess.CompletedProcess(argv, 3, b"", b"x"), good) is not None


def test_selftest_timings_do_not_affect_the_digest():
    argv = ("selftest", "--only", "1")
    a = b"[PASS]  1 Gauss-sum base case: G_2(1,1) = 2 (0.00s)\n"
    b = b"[PASS]  1 Gauss-sum base case: G_2(1,1) = 2 (1.25s)\n"
    assert workloads.output_digest(argv, a) == workloads.output_digest(argv, b)
    assert workloads.output_digest(argv, a) != workloads.output_digest(argv, a.replace(b"PASS", b"FAIL"))


def test_every_drawable_cli_command_has_a_recorded_output():
    with open(workloads.EXPECTED_CLI) as fh:
        recorded = json.load(fh)["outputs"]
    pool = [argv for items in workloads.cli_pool().values() for argv in items]
    pool += [workloads.SELFTEST_ARGV, workloads.TINY_SELFTEST_ARGV]
    assert {" ".join(argv) for argv in pool} <= set(recorded)


def test_every_seed_gets_the_same_mix_of_costs():
    def exact_mix(seed):
        return sorted((kind, p, min(q, p - q)) for kind, p, q in make_inputs("exact-analysis", seed)["tasks"])

    def numeric_mix(seed):
        rows = make_inputs("numeric-sweep", seed)["rows"]
        return sorted((kind, p, prec, r > 100) for kind, p, _q, _arg, r, prec in rows if kind == "meridian")

    def cli_mix(seed):
        return sorted(argv[0] if argv[0] == "selftest" else argv[2]
                      for argv in make_inputs("cli-acceptance", seed)["commands"])

    for mix in (exact_mix, numeric_mix, cli_mix):
        assert mix(1) == mix(2) == mix(3)


def test_tail_percentile_leaves_ten_samples_beyond():
    import run

    for count, pct in ((42, 76), (49, 79), (380, 97), (4000, 99)):
        assert run.tail_percentile(count) == pct
        assert count - math.ceil(pct / 100 * count) >= run.TAIL_BEYOND


def test_cli_boot_behaves_like_python_m(tmp_path):
    argv = ["--format", "json", "classify", "9"]
    env = dict(workloads.cli_env(), PERFBENCH_SPEED_OUT=str(tmp_path / "speed.json"))
    plain = subprocess.run([sys.executable, "-m", "lenswrt.cli", *argv], cwd=ROOT, env=env, capture_output=True)
    booted = subprocess.run([sys.executable, os.path.join(HERE, "cli_boot.py"), *argv], cwd=ROOT, env=env,
                            capture_output=True)
    assert (booted.returncode, booted.stdout, booted.stderr) == (plain.returncode, plain.stdout, plain.stderr)
    with open(tmp_path / "speed.json") as fh:
        summary = json.load(fh)
    assert summary["probes"] >= 1 and summary["speed"] > 0


def test_sampler_scales_the_work_and_leaves_out_the_probes():
    import time

    from speed import Sampler

    sampler = Sampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        t1 = time.perf_counter()
    finally:
        sampler.stop()
    assert len(sampler.ends) >= 10
    inside = sampler.probe_time(t0, t1)
    assert 0 < inside < 0.5 * (t1 - t0)
    assert sampler.scaled(t0, t1) == pytest.approx((t1 - t0 - inside) * sampler.speed(t0, t1))
    # a span too short to hold a probe borrows the probes around it
    assert sampler.speed(t0 + 0.1, t0 + 0.1) > 0
