"""Seeded inputs and checked operations for the three workloads.

make_inputs(workload, seed) returns plain data (ints, tuples, dicts) and
never imports lenswrt, so the same seed visibly gives the same inputs.
build_ops(...) turns those inputs into operations: each Op has a `run`
callable (the timed call into lenswrt, or one CLI process) and a `check`
that returns None or a failure message from a reference of its own.

Workloads (closed loop, one client, one process, no worker threads):

- exact-analysis: rank, kernel, recover and certificate queries on lens
  spaces, the exact elimination over Q(xi_p)[z, 1/z].
- numeric-sweep: tabulating invariants at many levels and two
  precisions against the direct-sum oracle; no elimination.
- cli-acceptance: one lenswrt CLI process per operation, including a
  selftest run, outputs compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from checks import (
    check_determinant,
    check_literal_generator,
    check_rank,
    embed_coeff,
    eval_terms,
    full_rank_order,
    gauss_counts,
    matvec_is_zero,
    plain_terms,
    same_cyclotomic,
    units,
)

WORKLOADS = ("exact-analysis", "numeric-sweep", "cli-acceptance")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
EXPECTED_CLI = os.path.join(HERE, "expected_cli.json")


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    # (wall seconds, result) -> seconds at the reference speed, for an op whose
    # work runs in another process; None: this process's own speed probes
    scale: Callable[[float, Any], float] | None = None


def _rng(workload: str, seed: int, tiny: bool) -> random.Random:
    return random.Random(f"{workload}/{seed}/{'tiny' if tiny else 'full'}")


def random_element(rng: random.Random, p: int, max_exp: int, bound: int) -> tuple:
    """Skein coefficients C_c(A) as {exponent: int} dicts, not all zero."""
    while True:
        coeffs = tuple(
            {e: v for e in range(-max_exp, max_exp + 1) if (v := rng.randint(-bound, bound))}
            for _ in range(p // 2 + 1)
        )
        if any(coeffs):
            return coeffs


# --- exact-analysis --------------------------------------------------------------

# The orders of the three classes: primes 7, 11, 13; twice an odd prime 14;
# deficient 9, 12, 15, 16, 18, 20, 21.  Order 22 is left out: one rank of
# L(22,3) takes 14.5 s.  At the cheap orders (ranks of 0.01-0.2 s) the seed
# draws q or p - q from each pair {q, p - q}: a space and its mirror image
# cost about the same, so every seed gets the same mix of costs.  The costly
# orders keep a fixed q, because their cost depends on q by up to 2.7x
# (L(21,q): rank 2.8-7.4 s), which would move wall_s and op_tail_ms from seed
# to seed by more than the machine's own noise.
DRAWN_ORDERS = (7, 9, 12, 16)
FIXED_SPACES = ((11, 1), (13, 2), (14, 5), (15, 2), (18, 1), (20, 13), (21, 2))
CERT_SPACES = ((13, 2), (19, 2), (23, 3), (26, 3))
TINY_DRAWN_ORDERS = (5,)
TINY_FIXED_SPACES = ((9, 4),)
TINY_CERT_SPACES = ((7, 2),)


def _exact_inputs(seed: int, tiny: bool) -> dict:
    rng = _rng("exact-analysis", seed, tiny)
    spaces = [(p, rng.choice((q, p - q))) for p in (TINY_DRAWN_ORDERS if tiny else DRAWN_ORDERS)
              for q in units(p) if 2 * q < p]
    spaces += TINY_FIXED_SPACES if tiny else FIXED_SPACES
    tasks = [("space", p, q) for p, q in spaces]
    tasks += [("certificate", p, q) for p, q in (TINY_CERT_SPACES if tiny else CERT_SPACES)]
    rng.shuffle(tasks)
    # recover_skein at the primes and twice odd primes, on a seeded element
    elements = {(p, q): random_element(rng, p, 0, 3) for kind, p, q in tasks
                if kind == "space" and full_rank_order(p)}
    return {"tasks": tasks, "elements": elements}


def _exact_ops(inputs: dict, lw) -> list[Op]:
    ops = []
    for kind, p, q in inputs["tasks"]:
        space = lw.LensSpace(p, q)
        if kind == "certificate":
            ops.append(Op(f"certificate L({p},{q})", lambda s=space: lw.fullrank_submatrix(s),
                          lambda cert, p=p, q=q: _check_certificate(cert, p, q)))
            continue
        state = {}
        ops.append(Op(f"rank L({p},{q})", lambda s=space, st=state: _rank_query(lw, s, st),
                      lambda r, p=p: check_rank(p, r)))
        if (p, q) in inputs["elements"]:
            element = inputs["elements"][(p, q)]
            skein = lw.SkeinElement(p, [lw.LaurentPoly("A", dict(t)) for t in element])
            rhs = [lw.f_link(space, skein, k).signed_body for k in range(p)]
            ops.append(Op(f"recover L({p},{q})", lambda s=space, rhs=rhs: lw.recover_skein(s, rhs),
                          lambda rec, el=element: _check_recovered(rec, el)))
        elif not full_rank_order(p):
            ops.append(Op(f"kernel L({p},{q})", lambda s=space: lw.kernel(s),
                          lambda basis, p=p, q=q, st=state: _check_kernel(basis, p, q, st)))
    return ops


def _rank_query(lw, space, state):
    state["matrix"] = lw.build_f_matrix(space)
    state["rank"] = lw.rank(state["matrix"])
    return state["rank"]


def _check_kernel(basis, p: int, q: int, state: dict) -> str | None:
    ncols = 1 + p // 2
    if "rank" not in state:
        return "no rank to compare the kernel dimension with"
    if len(basis) != ncols - state["rank"]:
        return f"kernel dimension {len(basis)} != {ncols} - rank {state['rank']}"
    for vec in basis:
        if all(not c.terms for c in vec.components):
            return "zero kernel vector"
        failure = matvec_is_zero(state["matrix"].entries, vec.components, p)
        if failure:
            return failure
    return check_literal_generator((p, q), basis)


def _check_recovered(recovered, element) -> str | None:
    if recovered.a_form is None:
        return "recovered class has no A-form"
    got = [plain_terms(c) for c in recovered.a_form.coeffs]
    want = [{e: Fraction(v) for e, v in t.items()} for t in element]
    return None if got == want else "recovered skein element differs from the one fed in"


def _check_certificate(cert, p: int, q: int) -> str | None:
    size = 1 + p // 2
    if len(cert.row_selection) != size or len(cert.col_selection) != size:
        return f"certificate of L({p},{q}) is not {size} x {size}"
    for k, row in zip(cert.row_selection, cert.entries):
        for c, entry in zip(cert.col_selection, row):
            if not same_cyclotomic(entry, gauss_counts(p, q * k, q * c + q + 1), p):
                return f"certificate entry (k={k}, c={c}) is not the Gauss sum G_+"
    return check_determinant(cert.entries, cert.determinant, p)


# --- numeric-sweep ---------------------------------------------------------------

NUMERIC_TOL = 1e-9
INTERPOLATE_TOL = 1e-6
SWEEP = {  # meridian rows per (p, precision, level class); other rows per batch
    False: {"meridian": 5, "link": 24, "zcomb": 6, "interpolate": 1},
    True: {"meridian": 1, "link": 1, "zcomb": 1, "interpolate": 1},
}
MERIDIAN_ORDERS = {False: range(2, 31), True: (5, 12)}
LINK_ORDER = 13
# interpolation cost grows with the exponent window, which grows with q: q is fixed
INTERPOLATE_ORDER = 5
INTERPOLATE_Q = 2
INTERPOLATE_SAMPLES = 32
INTERPOLATE_PRECISION = 300


def _level(rng: random.Random, large: bool | None = None) -> int:
    if large is None:
        large = rng.random() < 0.5
    return rng.randint(1000, 10000) if large else rng.randint(2, 40)


def _full_element(rng: random.Random, p: int, max_exp: int, bound: int) -> tuple:
    """Skein coefficients with every exponent of every color nonzero, so all cost alike."""
    return tuple({e: rng.choice((-1, 1)) * rng.randint(1, bound) for e in range(-max_exp, max_exp + 1)}
                 for _ in range(p // 2 + 1))


def _numeric_inputs(seed: int, tiny: bool) -> dict:
    """Meridian rows are stratified by order, precision and level class, so
    every seed has the same mix of costs; the seed draws q, c and r."""
    rng = _rng("numeric-sweep", seed, tiny)
    sizes = SWEEP[tiny]
    rows = []
    for p in MERIDIAN_ORDERS[tiny]:
        for prec in (53, 256):
            for large in (False, True):
                for _ in range(sizes["meridian"]):
                    rows.append(("meridian", p, rng.choice(units(p)), rng.randint(0, p // 2),
                                 _level(rng, large), prec))
    for _ in range(sizes["link"]):
        q = rng.choice(units(LINK_ORDER))
        rows.append(("link", LINK_ORDER, q, _full_element(rng, LINK_ORDER, 1, 3), _level(rng), 53))
    for _ in range(sizes["zcomb"]):
        rows.append(("zcomb", 9, rng.choice((1, 4)), None, _level(rng), rng.choice((53, 256))))
    for _ in range(sizes["interpolate"]):
        p = INTERPOLATE_ORDER
        rows.append(("interpolate", p, INTERPOLATE_Q, rng.randint(0, p // 2), rng.randrange(p),
                     INTERPOLATE_PRECISION))
    rng.shuffle(rows)
    return {"rows": rows}


def _numeric_ops(inputs: dict, lw) -> list[Op]:
    kernels = {}
    for q in (1, 4):
        basis = lw.kernel(lw.LensSpace(9, q))
        failure = check_literal_generator((9, q), basis)
        if failure:
            raise RuntimeError(f"set-up: {failure}")
        kernels[q] = basis[0].components
    ops = []
    for kind, p, q, arg, r, prec in inputs["rows"]:
        space = lw.LensSpace(p, q)
        label = f"{kind} L({p},{q}) r={r} prec={prec}"
        if kind == "meridian":
            run = (lambda s=space, c=arg, r=r, prec=prec:
                   (lw.eval_meridian(s, c, r, prec), lw.jeffrey_oracle(s, c, r, prec)))
            ops.append(Op(label, run, _check_close))
        elif kind == "link":
            skein = lw.SkeinElement(p, [lw.LaurentPoly("A", dict(t)) for t in arg])
            # C_c(A) at A = e^(2 pi i (2r+1) / 4r), made here so that only lenswrt is timed
            weights = _weights(arg, 2 * r + 1, 4 * r, prec)
            ops.append(Op(label, lambda s=space, el=skein, w=weights, r=r, prec=prec:
                          (lw.eval_link(s, el, r, prec), _oracles(lw, s, w, r, prec)),
                          lambda got, w=weights, prec=prec: _check_weighted(got, w, prec)))
        elif kind == "zcomb":
            comps = kernels[q]
            weights = _weights([plain_terms(c) for c in comps], 1, 4 * p * r, prec)
            ops.append(Op(label, lambda s=space, comps=comps, w=weights, r=r, prec=prec:
                          (lw.wrt.eval_z_combination(s, comps, r, prec), _oracles(lw, s, w, r, prec)),
                          lambda got, w=weights, prec=prec: _check_weighted(got, w, prec)))
        else:
            c, k = arg, r
            samples = _interpolation_samples(lw, space, c, k, prec)
            target = _fpoly_coefficients(lw, space, c, k, prec)
            ops.append(Op(f"interpolate L({p},{q}) c={c} k={k}",
                          lambda s=space, smp=samples, k=k, prec=prec: lw.interpolate_f(s, smp, k, precision=prec),
                          lambda result, t=target: _check_interpolated(result, t)))
    return ops


def _weights(terms, numerator: int, denominator: int, prec: int) -> dict:
    """Color -> its coefficient polynomial at e^(2 pi i numerator / denominator)."""
    import mpmath

    with mpmath.workprec(prec):
        return {c: eval_terms(t, numerator, denominator) for c, t in enumerate(terms) if t}


def _oracles(lw, space, weights: dict, r: int, prec: int) -> dict:
    return {c: lw.jeffrey_oracle(space, c, r, prec) for c in weights}


def _check_weighted(got, weights: dict, prec: int) -> str | None:
    """The value against the oracle weighted by coefficient, summed outside the timed call."""
    import mpmath

    value, oracles = got
    with mpmath.workprec(prec):
        return _check_close((value, mpmath.fsum(weights[c] * oracles[c] for c in weights)))


def _check_close(pair) -> str | None:
    value, oracle = pair
    diff = abs(value - oracle)
    return None if diff < NUMERIC_TOL else f"|value - oracle| = {float(diff):.3e}"


def _interpolation_samples(lw, space, c: int, k: int, prec: int) -> list:
    """sqrt(r) * w_r from the direct-sum oracle, on enough levels r = k mod p."""
    import mpmath

    p = space.p
    levels = [r for r in range(2, 4000) if r % p == k][:INTERPOLATE_SAMPLES]
    with mpmath.workprec(prec):
        return [(r, lw.jeffrey_oracle(space, c, r, prec) * mpmath.sqrt(r)) for r in levels]


def _fpoly_coefficients(lw, space, c: int, k: int, prec: int) -> dict:
    import mpmath

    fp = lw.f_poly(space, c, k)
    with mpmath.workprec(prec):
        scale = mpmath.mpc(0, fp.prefactor_sign) / mpmath.sqrt(2 * space.p)
        return {e: complex(scale * embed_coeff(v, space.p)) for e, v in fp.body.terms.items()}


def _check_interpolated(result, target: dict) -> str | None:
    poly, _residual = result
    for e in set(poly.terms) | set(target):
        got = complex(poly.coeff(e) or 0)
        if abs(got - target.get(e, 0)) >= INTERPOLATE_TOL:
            return f"interpolated coefficient of z^{e} is off by {abs(got - target.get(e, 0)):.3e}"
    return None


# --- cli-acceptance ----------------------------------------------------------------

SELFTEST_ARGV = ("selftest", "--only", "1,2,3,4,7,8,9,10,11,12")
TINY_SELFTEST_ARGV = ("selftest", "--only", "1,7")
CLI_DRAWS = {"gauss": 6, "dedekind": 4, "phi": 4, "fpoly": 6, "classify": 8, "rank": 6,
             "kernel": 4, "wrt": 6, "recover": 4}
RECOVER_SPACES = ((5, 2), (7, 3), (6, 5), (10, 3))
_SELFTEST_TIME = re.compile(rb"\(\d+\.\d+s\)$", re.M)


_RECOVER_FILE = re.compile(r"recover-(\d+)-(\d+)-(\d+)\.json$")


def recover_file(p: int, q: int, j: int) -> str:
    return os.path.join(".perfbench_out", "cli", f"recover-{p}-{q}-{j}.json")


def cli_pool() -> dict[str, list[tuple[str, ...]]]:
    """Every CLI invocation the workload may draw, each with a fixed format."""
    fmts = ("text", "json", "csv")
    pool: dict[str, list[tuple[str, ...]]] = {}

    def add(category: str, *args):
        items = pool.setdefault(category, [])
        items.append(("--format", fmts[len(items) % 3], category) + tuple(str(a) for a in args))

    for p in (3, 5, 6, 7, 10, 11, 13):
        for a, b in ((1, 0), (1, 1), (2, 3), (3, 5)):
            add("gauss", p, a, b)
    for p in (5, 7, 9, 11, 13, 17, 19, 23, 29):
        for q in units(p)[:3]:
            add("dedekind", q, p)
            add("phi", p, q)
    for p, q in ((5, 2), (7, 3), (9, 4), (10, 3), (12, 5)):
        for c, k in ((0, 1), (1, 2), (2, 0)):
            add("fpoly", p, q, c, k)
    for p in range(2, 41):
        add("classify", p)
    for p in (5, 6, 7, 8, 9, 10, 12):
        for q in units(p):
            add("rank", p, q)
    for p in (8, 9, 12):
        for q in units(p):
            add("kernel", p, q)
    for p in (3, 5, 7, 9, 10):
        for q in units(p)[:2]:
            for c in (0, 1):
                add("wrt", p, q, "--color", c, "--rmin", 2, "--rmax", 12)
    for p, q in RECOVER_SPACES:
        for j in range(3):
            add("recover", p, q, recover_file(p, q, j))
    return pool


def recover_element(p: int, q: int, j: int) -> tuple:
    return random_element(random.Random(f"recover/{p}/{q}/{j}"), p, 1, 3)


def _cli_inputs(seed: int, tiny: bool) -> dict:
    """One command from each stratum of each category's pool.  The pool lists
    each category p by p, so the strata (equal runs of it) give every seed
    the same mix of small and large p."""
    rng = _rng("cli-acceptance", seed, tiny)
    pool = cli_pool()
    commands = []
    for category, count in CLI_DRAWS.items():
        items = pool[category]
        if tiny:
            commands.append(rng.choice(items))
            continue
        bounds = [len(items) * i // count for i in range(count + 1)]
        commands += [rng.choice(items[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    if tiny:
        commands = rng.sample(commands, 3)
    commands.append(TINY_SELFTEST_ARGV if tiny else SELFTEST_ARGV)
    rng.shuffle(commands)
    return {"commands": commands}


def write_recover_file(lw, p: int, q: int, j: int) -> None:
    """The f_link polynomials of a fixed skein element, in the CLI's samples format."""
    space = lw.LensSpace(p, q)
    element = recover_element(p, q, j)
    skein = lw.SkeinElement(p, [lw.LaurentPoly("A", dict(t)) for t in element])
    fpolys = [_poly_json(lw.f_link(space, skein, k).signed_body) for k in range(p)]
    path = os.path.join(ROOT, recover_file(p, q, j))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"p": p, "q": q, "fpolys": fpolys}, fh)


def _poly_json(poly) -> list:
    """The CLI's documented polynomial format, written here so inputs do not depend on its codec."""
    out = []
    for e, c in sorted(poly.terms.items()):
        if getattr(c, "order", None) is None:
            f = Fraction(c)
            out.append([e, f.numerator, f.denominator])
        else:
            coeffs = [[j, Fraction(v).numerator, Fraction(v).denominator] for j, v in enumerate(c.coeffs) if v]
            out.append([e, {"order": c.order, "coeffs": coeffs}])
    return out


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("PERFBENCH_TRACE_OUT", None)
    return env


def normalized_output(argv, stdout: bytes) -> bytes:
    """stdout with the selftest's own per-criterion timings blanked out."""
    if argv[0] == "selftest":
        return _SELFTEST_TIME.sub(b"(<t>s)", stdout)
    return stdout


def output_digest(argv, stdout: bytes) -> str:
    return hashlib.sha256(normalized_output(argv, stdout)).hexdigest()


class CliRunner:
    """Runs one CLI invocation per op through cli_boot.py, which behaves like
    `python -m lenswrt.cli` and samples the child's speed; traced, it also
    installs the span wrappers.  This process's own probes pause meanwhile."""

    def __init__(self, traced: bool, sampler=None):
        self.traced = traced
        self.sampler = sampler
        self.env = cli_env()
        self.trace_parts: list[dict] = []
        self.commands = 0

    def __call__(self, argv):
        speed_out = os.path.join(OUT_DIR, f"cli-speed-{self.commands}.json")
        env = dict(self.env, PERFBENCH_SPEED_OUT=speed_out)
        if self.traced:
            out = os.path.join(OUT_DIR, f"cli-trace-{self.commands}.json")
            env["PERFBENCH_TRACE_OUT"] = out
        cmd = [sys.executable, os.path.join(HERE, "cli_boot.py"), *argv]
        if self.sampler is not None:
            self.sampler.pause()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=150)
        finally:
            if self.sampler is not None:
                self.sampler.resume()
        self.commands += 1
        with open(speed_out) as fh:
            proc.speed = json.load(fh)
        if self.traced and proc.returncode == 0:
            with open(out) as fh:
                self.trace_parts.append(json.load(fh))
        return proc


def _child_scaled(raw_s: float, proc) -> float:
    return (raw_s - proc.speed["probe_s"]) * proc.speed["speed"]


def _cli_ops(inputs: dict, lw, runner: CliRunner) -> list[Op]:
    with open(EXPECTED_CLI) as fh:
        expected = json.load(fh)["outputs"]
    for argv in inputs["commands"]:
        match = _RECOVER_FILE.search(argv[-1])
        if match:
            write_recover_file(lw, *map(int, match.groups()))
    ops = []
    for argv in inputs["commands"]:
        key = " ".join(argv)
        ops.append(Op(key, lambda a=argv: runner(a),
                      lambda proc, a=argv, want=expected.get(key): _check_cli(a, proc, want), _child_scaled))
    return ops


def _check_cli(argv, proc, want) -> str | None:
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}"
    if want is None:
        return "no recorded output for this command"
    if output_digest(argv, proc.stdout) != want:
        return "output differs from the recorded output"
    return None


# --- dispatch --------------------------------------------------------------------


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    return {"exact-analysis": _exact_inputs, "numeric-sweep": _numeric_inputs,
            "cli-acceptance": _cli_inputs}[workload](seed, tiny)


def build_ops(workload: str, inputs: dict, lw, runner: CliRunner | None = None) -> list[Op]:
    if workload == "exact-analysis":
        return _exact_ops(inputs, lw)
    if workload == "numeric-sweep":
        return _numeric_ops(inputs, lw)
    return _cli_ops(inputs, lw, runner)


def run_ops(ops: list[Op], tracer=None, sampler=None) -> dict:
    """Run each op once, timing only its call; returns latencies and failures.

    With a sampler, latencies and wall_s are in seconds at the reference
    speed (speed.py) and raw_latencies and raw_wall_s are wall times;
    without one, both are wall times."""
    raw, latencies, failures = [], [], []
    gaps = []  # the batch's time outside the ops: checks and bookkeeping
    clock = time.perf_counter
    start = last = clock()
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_id
            tracer.enabled = True
        t0 = clock()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a raising operation is a failed operation
            result, error = None, exc
        t1 = clock()
        if tracer is not None:
            tracer.enabled = False
        gaps.append((last, t0))
        last = t1
        raw.append(t1 - t0)
        if sampler is None:
            latencies.append(t1 - t0)
        elif op.scale is not None and error is None:
            latencies.append(op.scale(t1 - t0, result))
        else:
            latencies.append(sampler.scaled(t0, t1))
        if error is not None:
            failures.append(f"{op.label}: {type(error).__name__}: {error}")
            continue
        try:
            failure = op.check(result)
        except Exception as exc:  # a check that cannot run counts against the op
            failure = f"check raised {type(exc).__name__}: {exc}"
        if failure:
            failures.append(f"{op.label}: {failure}")
    end = clock()
    gaps.append((last, end))
    wall = end - start
    if sampler is not None:
        wall = sum(latencies) + sum(sampler.scaled(a, b) for a, b in gaps)
    return {"wall_s": wall, "raw_wall_s": end - start, "latencies": latencies, "raw_latencies": raw,
            "failures": failures}
