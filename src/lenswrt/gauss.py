"""Generalized Gauss sums over Z/p, exactly, in Q(xi_p).

gauss_sum sums xi_p^(a n^2 + b n) directly, by counting the exponents mod
p; g_pm, which the f-polynomials call once per sum, shares that counter
and builds no GaussSumSpec.  gauss_closed_form evaluates
the same sums through Jacobi-symbol formulas in the cases where such
formulas exist (a multiple of p; p an odd prime; p twice an odd prime),
expressed entirely inside Z[xi_p] by writing eps(p) sqrt(p) as the
quadratic sum gauss_sum(p, 1, 0), summed directly once per odd prime p
and cached.  For an odd prime p the closed form (a/p) xi_p^e Q is that
sum's numerator rotated by e places and signed, reduced once modulo Phi_p.
"""

from __future__ import annotations

import functools
import math

from .cyclotomic import CyclotomicNumber, _make, _reduce
from .errors import UnsupportedCase
from .numtheory import is_prime, jacobi_symbol, mod_inverse
from .record import record


@record
class GaussSumSpec:
    """Parameters (p, a, b) of sum_{n=0}^{p-1} xi_p^(a n^2 + b n), reduced mod p."""

    p: int
    a: int
    b: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"modulus must be >= 2, got {self.p}")
        object.__setattr__(self, "a", self.a % self.p)
        object.__setattr__(self, "b", self.b % self.p)


def gauss_sum(spec: GaussSumSpec) -> CyclotomicNumber:
    """Direct summation of sum_{n=0}^{p-1} xi_p^(a n^2 + b n)."""
    return _counted_sum(spec.p, spec.a, spec.b)


def _counted_sum(p: int, a: int, b: int) -> CyclotomicNumber:
    """sum_{n=0}^{p-1} xi_p^(a n^2 + b n) for p >= 2: the exponents counted mod p, reduced once."""
    counts = [0] * p
    for n in range(p):
        counts[n * (a * n + b) % p] += 1
    return _make(p, _reduce(p, counts), 1)


def g_pm(p: int, q: int, c: int, k: int, sign: int) -> CyclotomicNumber:
    """G_sign(p, q, c, k) = gauss_sum(p, qk, qc + q + sign), sign in {+1, -1}."""
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    if math.gcd(q, p) != 1:
        raise ValueError(f"(q, p) must be coprime, got ({q}, {p})")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return _counted_sum(p, q * k, q * c + q + sign)


def vanishes_mod4(p: int, c: int) -> bool:
    """True iff p = 0 mod 4 and c odd, which forces both G_+- sums to vanish."""
    return p % 4 == 0 and c % 2 == 1


def gauss_closed_form(spec: GaussSumSpec) -> CyclotomicNumber:
    """Closed-form value of gauss_sum(spec), exact in Z[xi_p].

    Supported: a = 0 mod p for any p; p an odd prime; p twice an odd prime.
    Raises UnsupportedCase otherwise.
    """
    p, a, b = spec.p, spec.a, spec.b
    if a == 0:
        # geometric sum
        if b == 0:
            return CyclotomicNumber.from_rational(p, p)
        return CyclotomicNumber.zero(p)
    if is_prime(p) and p % 2 == 1:
        return _odd_prime_closed_form(p, a, b).lift(p)
    if p % 2 == 0 and is_prime(p // 2) and p // 2 % 2 == 1:
        s = p // 2
        if (a + b) % 2 == 1:
            # terms at n and n + s cancel in pairs
            return CyclotomicNumber.zero(p)
        half = mod_inverse(2, s)
        return (2 * _odd_prime_closed_form(s, a * half, b * half)).lift(p)
    raise UnsupportedCase(f"no closed form implemented for p = {p} with a != 0 mod p")


def _odd_prime_closed_form(p: int, a: int, b: int) -> CyclotomicNumber:
    """(a/p) xi_p^(-b^2 (4a)^*) gauss_sum(p, 1, 0), by completing the square."""
    a %= p
    b %= p
    if a == 0:
        if b == 0:
            return CyclotomicNumber.from_rational(p, p)
        return CyclotomicNumber.zero(p)
    # xi^shift times the quadratic sum is its numerator rotated by shift places
    # in a length-p vector, reduced once modulo Phi_p
    shift = -b * b * mod_inverse(4 * a, p)
    sign = jacobi_symbol(a, p)
    vec = [0] * p
    for j, c in enumerate(_quadratic_sum(p)._num):
        vec[(j + shift) % p] = sign * c
    return _make(p, _reduce(p, vec), 1)


@functools.lru_cache(maxsize=None)
def _quadratic_sum(p: int) -> CyclotomicNumber:
    """gauss_sum(p, 1, 0) = eps(p) sqrt(p), by direct summation."""
    return _counted_sum(p, 1, 0)
