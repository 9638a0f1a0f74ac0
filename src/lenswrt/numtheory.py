"""Exact integer and rational number theory.

Modular inverses, Jacobi symbols, Dedekind sums, squares-mod-p counting,
deterministic primality, factorization of SL(2,Z) matrices into T^m S
letters, and the Rademacher phi function obtained from such a factorization.

The Dedekind sum is its defining sum over n = 1..p-1, added in integers
and divided once by 4p^2; it never uses reciprocity, so the reciprocity
law stays an independent check of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

Matrix2 = tuple[tuple[int, int], tuple[int, int]]


def mod_inverse(t: int, u: int) -> int:
    """Return t* in [0, u) with t * t* == 1 (mod u).

    Raises ValueError unless gcd(t, u) == 1 and u >= 2.
    """
    if u < 2:
        raise ValueError(f"modulus must be >= 2, got {u}")
    if math.gcd(t, u) != 1:
        raise ValueError(f"{t} is not invertible modulo {u}")
    return pow(t, -1, u)


def jacobi_symbol(a: int, b: int) -> int:
    """Jacobi symbol (a/b) for odd positive b."""
    if b < 1 or b % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd positive denominator, got {b}")
    a %= b
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0


def sawtooth(x: Fraction) -> Fraction:
    """((x)): x - floor(x) - 1/2 for non-integer x, and 0 on integers.

    dedekind_sum does not call it; perfbench/tracing.py wraps it by name."""
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def dedekind_sum(q: int, p: int) -> Fraction:
    """Dedekind sum s(q, p) = sum_{n=1}^{p-1} ((n/p)) ((qn/p)), gcd(q, p) = 1.

    With m = qn mod p, which is never 0 here, ((n/p)) ((qn/p)) is
    (2n - p)(2m - p) / 4p^2: the defining sum in integers over one
    denominator.
    """
    if p < 1:
        raise ValueError(f"denominator must be >= 1, got {p}")
    if math.gcd(q, p) != 1:
        raise ValueError(f"dedekind_sum requires coprime arguments, got ({q}, {p})")
    total = sum((2 * n - p) * (2 * (q * n % p) - p) for n in range(1, p))
    return Fraction(total, 4 * p * p)


def count_squares_mod(p: int) -> int:
    """Number of distinct values of n^2 mod p."""
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    return len({n * n % p for n in range(p)})


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # the least strong pseudoprime to all of _MR_BASES


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first thirteen prime bases, a proof
    for n < 3317044064679887385961981; raises ValueError at or above it."""
    if n >= _MR_BOUND:
        raise ValueError(f"primality is only proven below {_MR_BOUND}, got {n}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class OrderClass(Enum):
    DETERMINING = "Determining"
    NON_DETERMINING = "NonDetermining"


def classify_order(p: int) -> OrderClass:
    """Determining iff p is prime or twice an odd prime."""
    if p < 2:
        raise ValueError(f"order must be >= 2, got {p}")
    if is_prime(p):
        return OrderClass.DETERMINING
    if p % 2 == 0 and p // 2 % 2 == 1 and is_prime(p // 2):
        return OrderClass.DETERMINING
    return OrderClass.NON_DETERMINING


# --- SL(2,Z) words in the letters J(m) = T^m S ---------------------------


def mat_mul(a: Matrix2, b: Matrix2) -> Matrix2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def j_letter(m: int) -> Matrix2:
    """J(m) = T^m S = ((m, -1), (1, 0))."""
    return ((m, -1), (1, 0))


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _nearest_quotient(a: int, c: int) -> int:
    """Integer m minimizing |a - m c| (ties broken toward floor)."""
    m = a // c
    return m if abs(a - m * c) <= abs(a - (m + 1) * c) else m + 1


@dataclass(frozen=True)
class SL2Word:
    """A factorization U = J(m_t) ... J(m_1) with m_t = 0 and t > 1.

    partial_matrices[i] is U_{i+1} = J(m_{i+1}) ... J(m_1); weights tracks
    w_1 = 0, w_i = w_{i-1} + sign(c_{i-1} c_i) with c_i the lower-left
    entry of U_i.
    """

    m: tuple[int, ...]
    partial_matrices: tuple[Matrix2, ...]
    weights: tuple[int, ...]

    @property
    def matrix(self) -> Matrix2:
        return self.partial_matrices[-1]

    @property
    def trace_sum(self) -> int:
        return sum(self.m)

    @property
    def signature(self) -> int:
        return self.weights[-1]


def lens_matrix(p: int, q: int) -> Matrix2:
    """The gluing matrix ((q, b), (p, d)) with d = q* mod p and qd - bp = 1."""
    _validate_pq(p, q)
    d = mod_inverse(q, p)
    b = (q * d - 1) // p
    return ((q, b), (p, d))


def _validate_pq(p: int, q: int) -> None:
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if not 0 < q < p:
        raise ValueError(f"q must satisfy 0 < q < p, got q={q}, p={p}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"(p, q) must be coprime, got ({p}, {q})")


def sl2_expand(p: int, q: int) -> SL2Word:
    """Factor the lens gluing matrix as J(m_t) ... J(m_1), m_t = 0.

    Letters are peeled off the left of S^-1 U by a Euclidean descent on the
    first column; the terminal T-power block is finished in two explicit
    steps.  The product of the returned letters reconstructs U exactly.
    """
    U = lens_matrix(p, q)
    d, b = U[1][1], U[0][1]
    letters_rev = [0]
    M: Matrix2 = ((p, d), (-q, -b))  # S^-1 U
    while M[1] != (1, 0):
        (a, bb), (c, dd) = M
        if c != 0:
            m = _nearest_quotient(a, c)
            M = ((c, dd), (m * c - a, m * dd - bb))
            letters_rev.append(m)
        else:
            # M = ((e, bb), (0, e)) with e = +-1: exactly two letters remain
            # before the terminal J(-e) form.
            e = a
            letters_rev.append(e * (bb - 1))
            letters_rev.append(-e)
            M = ((-e, -1), (1, 0))
    letters_rev.append(M[0][0])
    letters = tuple(reversed(letters_rev))

    partials = [j_letter(letters[0])]
    for m in letters[1:]:
        partials.append(mat_mul(j_letter(m), partials[-1]))
    if partials[-1] != U:
        raise AssertionError(f"word does not reconstruct the matrix for ({p}, {q})")

    weights = [0]
    lower_left = [P[1][0] for P in partials]
    for i in range(1, len(lower_left)):
        weights.append(weights[-1] + _sign(lower_left[i - 1] * lower_left[i]))
    return SL2Word(m=letters, partial_matrices=tuple(partials), weights=tuple(weights))


def rademacher_phi(p: int, q: int) -> int:
    """phi(U) = sum(m_i) - 3 * w_t for the word produced by sl2_expand."""
    word = sl2_expand(p, q)
    return word.trace_sum - 3 * word.signature
