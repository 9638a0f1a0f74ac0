"""The acceptance checks behind the `selftest` subcommand.

Each criterion is a function returning (passed, detail).  Tolerances are
fixed here and mirrored by the test suite.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from .analysis import (
    build_f_matrix,
    fullrank_submatrix,
    kernel,
    lambda_membership,
    rank,
    recover_skein,
)
from .errors import UnsupportedCase
from .gauss import GaussSumSpec, gauss_closed_form, gauss_sum
from .laurent import LaurentPoly
from .numtheory import count_squares_mod, dedekind_sum, mod_inverse, rademacher_phi
from .skein import SkeinElement
from .wrt import LensSpace, eval_meridian, f_link, f_poly, jeffrey_oracle


def _valid_qs(p: int) -> list[int]:
    return [q for q in range(1, p) if math.gcd(p, q) == 1]


def _random_skein(p: int, rng: random.Random, max_exp: int, bound: int = 5) -> SkeinElement:
    coeffs = []
    for _ in range(p // 2 + 1):
        terms = {e: rng.randint(-bound, bound) for e in range(-max_exp, max_exp + 1)}
        coeffs.append(LaurentPoly("A", terms))
    return SkeinElement(p, coeffs)


def check_gauss_base_case():
    """gauss_sum(2,1,1) equals 2 exactly."""
    value = gauss_sum(GaussSumSpec(2, 1, 1))
    ok = value == 2
    return ok, f"G_2(1,1) = {value}"


def check_mod4_vanishing():
    """p in {4,8,12}: odd colors have identically zero polynomials and invariants."""
    checked = 0
    for p in (4, 8, 12):
        for q in _valid_qs(p):
            space = LensSpace(p, q)
            for c in range(1, p // 2 + 1, 2):
                for k in range(p):
                    if not f_poly(space, c, k).is_zero():
                        return False, f"nonzero body at (p,q,c,k)=({p},{q},{c},{k})"
                for r in range(2, 41):
                    if abs(eval_meridian(space, c, r, 64)) >= 1e-10:
                        return False, f"nonzero invariant at (p,q,c,r)=({p},{q},{c},{r})"
                checked += 1
    return True, f"{checked} (p,q,c) families identically zero"


def check_oracle_equivalence():
    """Polynomial evaluation matches the direct double sum, p <= 10, r = 2..40."""
    worst = 0.0
    for p in range(2, 11):
        for q in _valid_qs(p):
            space = LensSpace(p, q)
            for c in range(p // 2 + 1):
                for r in range(2, 41):
                    diff = abs(eval_meridian(space, c, r, 64) - jeffrey_oracle(space, c, r, 64))
                    worst = max(worst, float(diff))
                    if diff >= 1e-9:
                        return False, f"|diff| = {float(diff):.3e} at (p,q,c,r)=({p},{q},{c},{r})"
    return True, f"worst |diff| = {worst:.3e}"


def check_conjugation_symmetry():
    """Coefficient-wise f(J,k) = -conj(f(J,p-k)) for 100 random integer J."""
    rng = random.Random(1202)
    count = 0
    while count < 100:
        for p in range(3, 11):
            q = rng.choice(_valid_qs(p))
            space = LensSpace(p, q)
            element = _random_skein(p, rng, 4)
            for k in range(p):
                body_k = f_link(space, element, k).signed_body
                body_conj = f_link(space, element, (p - k) % p).signed_body.conj_coeffs()
                if not body_k == body_conj:
                    return False, f"symmetry fails at (p,q,k)=({p},{q},{k})"
            count += 1
            if count >= 100:
                break
    return True, "100 random skein elements checked"


def check_rank_positive():
    """rank = 1+[p/2] for p prime or twice an odd prime, every valid q."""
    for p in (2, 3, 5, 7, 11, 13, 6, 10, 14):
        for q in _valid_qs(p):
            r = rank(build_f_matrix(LensSpace(p, q)))
            if r != 1 + p // 2:
                return False, f"rank L({p},{q}) = {r}, expected {1 + p // 2}"
    return True, "full rank at all 47 (p,q)"


def check_rank_negative():
    """rank < 1+[p/2] and rank <= 1+#_p for composite non-2s orders."""
    details = []
    for p in (4, 8, 9, 12, 15, 16, 21, 25):
        for q in _valid_qs(p)[:2]:
            r = rank(build_f_matrix(LensSpace(p, q)))
            bound = 1 + count_squares_mod(p)
            if r >= 1 + p // 2:
                return False, f"rank L({p},{q}) = {r} not below {1 + p // 2}"
            if r > bound:
                return False, f"rank L({p},{q}) = {r} exceeds 1+#_p = {bound}"
            details.append(f"L({p},{q})={r}")
    return True, " ".join(details)


def check_rank_nine():
    """Both order-nine spaces have rank exactly four."""
    r1 = rank(build_f_matrix(LensSpace(9, 1)))
    r4 = rank(build_f_matrix(LensSpace(9, 4)))
    ok = r1 == 4 and r4 == 4
    return ok, f"rank L(9,1) = {r1}, rank L(9,4) = {r4}"


def _z(terms: dict[int, int]) -> LaurentPoly:
    return LaurentPoly("z", terms)


KERNEL_TARGET_9_1 = (
    _z({}),
    _z({15: -1, 27: 1}),
    _z({12: 1, 24: -1}),
    _z({15: -1}),
    _z({0: 1}),
)

KERNEL_TARGET_9_4 = (
    _z({84: -1, 108: 1}),
    _z({}),
    _z({60: 1, 72: -1}),
    _z({30: -1}),
    _z({0: 1}),
)


def check_kernel_vectors():
    """One-dimensional kernels at order nine match the expected generators as lines."""
    for q, target in ((1, KERNEL_TARGET_9_1), (4, KERNEL_TARGET_9_4)):
        basis = kernel(LensSpace(9, q))
        if len(basis) != 1:
            return False, f"kernel of L(9,{q}) has dimension {len(basis)}"
        if not basis[0].same_line(target):
            return False, f"kernel generator of L(9,{q}) is not the expected line"
    return True, "both generators match (in fact literally)"


def check_lambda_membership():
    """The order-nine kernel lines avoid the ordinary skein lattice; units do not."""
    for q in (1, 4):
        vec = kernel(LensSpace(9, q))[0]
        if lambda_membership(vec, 9):
            return False, f"kernel vector of L(9,{q}) wrongly admitted"
    for c in range(5):
        unit = [LaurentPoly("z", {0: 1} if i == c else {}) for i in range(5)]
        if not lambda_membership(unit, 9):
            return False, f"unit vector mu_{c} wrongly rejected"
    return True, "kernel lines rejected, unit vectors admitted"


def check_recovery_roundtrip():
    """recover_skein inverts f_link exactly on random elements at full-rank orders."""
    rng = random.Random(2601)
    for p in (3, 5, 7, 6, 10):
        q = rng.choice(_valid_qs(p))
        space = LensSpace(p, q)
        for _ in range(3):
            element = _random_skein(p, rng, 3)
            polys = [f_link(space, element, k).signed_body for k in range(p)]
            recovered = recover_skein(space, polys)
            if recovered.a_form is None or not recovered.a_form == element:
                return False, f"round trip failed at L({p},{q})"
    return True, "15 random round trips exact"


def check_number_theory():
    """Dedekind reciprocity, both phi formulas, and the framing identity, p <= 50."""
    for p in range(2, 51):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            s_qp = dedekind_sum(q, p)
            rec = s_qp + dedekind_sum(p, q)
            target = Fraction(-1, 4) + (Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)) / 12
            if rec != target:
                return False, f"reciprocity fails at ({q},{p})"
            d = mod_inverse(q, p)
            b = (q * d - 1) // p
            phi = rademacher_phi(p, q)
            closed = Fraction(q + d, p) - 12 * dedekind_sum(d, p)
            if closed != phi:
                return False, f"phi closed form fails at ({p},{q})"
            if p * b - p * q * phi + q * q + 1 != 12 * p * q * s_qp:
                return False, f"framing identity fails at ({p},{q})"
    return True, "all identities exact for p <= 50"


def check_certificates_and_closed_forms():
    """Nonzero determinant certificates, and closed forms equal direct sums, p <= 62."""
    for p in (2, 3, 5, 7, 11, 13, 6, 10, 14):
        for q in _valid_qs(p):
            cert = fullrank_submatrix(LensSpace(p, q))
            if not cert.nonzero:
                return False, f"vanishing certificate determinant at L({p},{q})"
    checked = 0
    for p in range(2, 63):
        for a in range(p):
            for b in range(p):
                spec = GaussSumSpec(p, a, b)
                try:
                    closed = gauss_closed_form(spec)
                except UnsupportedCase:
                    continue
                if not closed == gauss_sum(spec):
                    return False, f"closed form mismatch at (p,a,b)=({p},{a},{b})"
                checked += 1
    return True, f"all certificates nonzero; {checked} closed forms verified"


CRITERIA = (
    (1, "Gauss-sum base case G_2(1,1) = 2", check_gauss_base_case),
    (2, "vanishing for p = 0 mod 4, odd colors", check_mod4_vanishing),
    (3, "polynomial evaluation = direct sum oracle (p <= 10, r <= 40)", check_oracle_equivalence),
    (4, "coefficient-wise conjugation symmetry k <-> p-k", check_conjugation_symmetry),
    (5, "full rank for p prime or twice an odd prime", check_rank_positive),
    (6, "rank deficiency and squares bound for other orders", check_rank_negative),
    (7, "rank four at order nine", check_rank_nine),
    (8, "order-nine kernel generators", check_kernel_vectors),
    (9, "ordinary-lattice obstruction for kernel lines", check_lambda_membership),
    (10, "recovery round trip at full-rank orders", check_recovery_roundtrip),
    (11, "Dedekind reciprocity and framing identities (p <= 50)", check_number_theory),
    (12, "submatrix certificates and closed-form Gauss sums (p <= 62)", check_certificates_and_closed_forms),
)


def criterion_records(only=None):
    """Run the acceptance checks in CRITERIA order (all, or the numbers in
    `only`), yielding one record per criterion: number, title, passed,
    detail and the check's wall time in seconds."""
    for number, title, fn in CRITERIA:
        if only and number not in only:
            continue
        start = time.monotonic()
        ok, detail = fn()
        yield {"number": number, "title": title, "passed": bool(ok), "detail": detail,
               "seconds": time.monotonic() - start}


def run_selftest(only=None, writeln=print) -> int:
    """Run the acceptance checks, print one line per criterion, return exit code."""
    failures = 0
    for record in criterion_records(only):
        status = "PASS" if record["passed"] else "FAIL"
        writeln(f"[{status}] {record['number']:2d} {record['title']}: {record['detail']} ({record['seconds']:.2f}s)")
        failures += not record["passed"]
    return 0 if failures == 0 else 1
