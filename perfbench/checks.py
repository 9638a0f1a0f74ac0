"""Reference values that do not come from the code under test.

Exact checks use plain integer / Fraction arithmetic written here: the
theoretical rank of the f-matrix, products M*v reduced modulo a
cyclotomic polynomial computed here, Gauss sums by direct counting, and
the literal order-nine kernel generators.  Numeric checks evaluate
roots of unity with mpmath directly.  Each check returns None on
success and a one-line failure message otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def full_rank_order(p: int) -> bool:
    """Orders whose f-matrix has full column rank: p prime or twice an odd prime."""
    return is_prime(p) or (p % 2 == 0 and p // 2 > 2 and is_prime(p // 2))


def units(p: int) -> list[int]:
    return [q for q in range(1, p) if math.gcd(p, q) == 1]


def squares_count(p: int) -> int:
    return len({n * n % p for n in range(p)})


def check_rank(p: int, rank: int) -> str | None:
    cols = 1 + p // 2
    if full_rank_order(p):
        return None if rank == cols else f"rank {rank} at p={p}, expected full rank {cols}"
    if rank >= cols:
        return f"rank {rank} at p={p} is not below {cols}"
    if rank > 1 + squares_count(p):
        return f"rank {rank} at p={p} exceeds 1 + #squares = {1 + squares_count(p)}"
    return None


# --- exact arithmetic in Q(xi_n)[z, 1/z], independent of lenswrt.cyclotomic -----


def cyclotomic_poly(n: int) -> list[int]:
    """Coefficients (low to high) of Phi_n, by dividing x^n - 1 by Phi_d, d | n, d < n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_poly(d)
            dd = len(den) - 1
            quot = [0] * (len(poly) - dd)
            for i in range(len(poly) - 1, dd - 1, -1):
                c = poly[i]
                quot[i - dd] = c
                for j, dj in enumerate(den):
                    poly[i - dd + j] -= c * dj
            poly = quot
    return poly


def _coeff_vector(c, n: int) -> list[Fraction]:
    """A coefficient (int, Fraction or element of Q(xi_m), m | n) as a vector mod x^n - 1."""
    vec = [Fraction(0)] * n
    order = getattr(c, "order", None)
    if order is None:
        vec[0] = Fraction(c)
        return vec
    step = n // order
    for j, v in enumerate(c.coeffs):
        vec[(j * step) % n] += Fraction(v)
    return vec


def _is_zero_mod_phi(vec: list[Fraction], phi: list[int]) -> bool:
    rem = list(vec)
    deg = len(phi) - 1
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j, pj in enumerate(phi):
                rem[i - deg + j] -= c * pj
    return not any(rem[:deg])


def matvec_is_zero(entries, vector, n: int) -> str | None:
    """Exact check that sum_c entries[k][c] * vector[c] = 0 for every row k."""
    phi = cyclotomic_poly(n)
    comps = [dict(v.terms) for v in vector]
    for k, row in enumerate(entries):
        acc: dict[int, list[Fraction]] = {}
        for entry, comp in zip(row, comps):
            for e1, a in entry.terms.items():
                va = _coeff_vector(a, n)
                for e2, b in comp.items():
                    vb = _coeff_vector(b, n)
                    out = acc.setdefault(e1 + e2, [Fraction(0)] * n)
                    for i, x in enumerate(va):
                        if x:
                            for j, y in enumerate(vb):
                                if y:
                                    out[(i + j) % n] += x * y
        for e, vec in acc.items():
            if not _is_zero_mod_phi(vec, phi):
                return f"row {k} of M*v has a nonzero z^{e} coefficient"
    return None


def gauss_counts(p: int, a: int, b: int) -> list[int]:
    """sum_n xi_p^(a n^2 + b n) as exponent counts mod x^p - 1."""
    counts = [0] * p
    for n in range(p):
        counts[(a * n * n + b * n) % p] += 1
    return counts


def same_cyclotomic(value, counts: list[int], p: int) -> bool:
    diff = [x - Fraction(y) for x, y in zip(_coeff_vector(value, p), counts)]
    return _is_zero_mod_phi(diff, cyclotomic_poly(p))


# --- the literal order-nine kernel generators ------------------------------------

KERNEL_GENERATORS = {
    (9, 1): ({}, {15: -1, 27: 1}, {12: 1, 24: -1}, {15: -1}, {0: 1}),
    (9, 4): ({84: -1, 108: 1}, {}, {60: 1, 72: -1}, {30: -1}, {0: 1}),
}


def plain_terms(poly) -> dict:
    """Exponent -> rational coefficient, or None if a coefficient is irrational."""
    out = {}
    for e, c in poly.terms.items():
        if getattr(c, "order", None) is not None:
            if any(c.coeffs[1:]):
                return None
            c = c.coeffs[0]
        out[e] = Fraction(c)
    return out


def check_literal_generator(space_key, basis) -> str | None:
    target = KERNEL_GENERATORS.get(space_key)
    if target is None:
        return None
    if len(basis) != 1:
        return f"kernel of L{space_key} has dimension {len(basis)}, expected 1"
    got = [plain_terms(c) for c in basis[0].components]
    want = [{e: Fraction(v) for e, v in t.items()} for t in target]
    return None if got == want else f"kernel generator of L{space_key} differs from the literal one"


# --- numeric references -------------------------------------------------------------


def unit_root(numerator: int, denominator: int) -> mpmath.mpc:
    return mpmath.expjpi(mpmath.mpf(2 * (numerator % denominator)) / denominator)


def eval_terms(terms: dict, numerator: int, denominator: int) -> mpmath.mpc:
    """sum c x^e at x = e^(2 pi i numerator / denominator), rational c, current precision."""
    return mpmath.fsum(
        mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator * unit_root(e * numerator, denominator)
        for e, c in terms.items()
    )


def embed_coeff(c, order: int) -> mpmath.mpc:
    """A coefficient of Q(xi_order) (or Q) at xi -> e^(2 pi i / order)."""
    if getattr(c, "order", None) is None:
        return mpmath.mpc(mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator)
    return eval_terms({j: v for j, v in enumerate(c.coeffs) if v}, 1, c.order)


def check_determinant(entries, determinant, p: int) -> str | None:
    """The exact determinant is nonzero and matches the numeric determinant of the entries."""
    if not any(determinant.coeffs):
        return "certificate determinant is zero"
    with mpmath.workprec(160):
        numeric = mpmath.matrix([[embed_coeff(e, p) for e in row] for row in entries])
        want = mpmath.det(numeric)
        got = embed_coeff(determinant, p)
        if abs(got) < mpmath.mpf(10) ** -20:
            return "certificate determinant embeds to zero"
        if abs(got - want) > mpmath.mpf(10) ** -12 * max(1, abs(want)):
            return "certificate determinant differs from the numeric determinant"
    return None
