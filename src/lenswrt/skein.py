"""The skein module of a lens space of order p as a free module on
mu_0 ... mu_[p/2], with conversion between the power basis (parallel
meridians) and the colored basis given by the Chebyshev-type recursion
e_c = alpha e_(c-1) - e_(c-2).
"""

from __future__ import annotations

from .codec import field, poly_from_json, poly_to_json
from .laurent import LaurentPoly


def chebyshev_expand(c: int) -> list[int]:
    """Integer coefficients of e_c as a polynomial in alpha (index = power).

    e_0 = 1, e_(-1) = 0, e_c = alpha e_(c-1) - e_(c-2); negative c uses the
    recursion run backwards, giving e_(-c-2) = -e_c.
    """
    if c == -1:
        return []
    if c >= 0:
        prev: list[int] = []          # e_(-1)
        cur = [1]                     # e_0
        for _ in range(c):
            prev, cur = cur, _alpha_shift_sub(cur, prev)
        return cur
    # run e_(n-2) = alpha e_(n-1) - e_n downward from (e_0, e_(-1))
    above = [1]                       # e_(n)   starting at n = 0
    cur: list[int] = []               # e_(n-1) starting at n-1 = -1
    for _ in range(-c - 1):
        above, cur = cur, _alpha_shift_sub(cur, above)
    return cur


def _alpha_shift_sub(a: list[int], b: list[int]) -> list[int]:
    """alpha * a - b on coefficient lists."""
    out = [0] + list(a)
    for i, v in enumerate(b):
        out[i] -= v
    while out and out[-1] == 0:
        out.pop()
    return out


def chebyshev_matrix(n: int) -> list[list[int]]:
    """(n+1)x(n+1) upper-unitriangular matrix: column j holds e_j in alpha powers."""
    cols = [chebyshev_expand(j) for j in range(n + 1)]
    return [[cols[j][i] if i < len(cols[j]) else 0 for j in range(n + 1)] for i in range(n + 1)]


class SkeinElement:
    """Coefficient vector over mu_0 ... mu_[p/2] with entries in Z[A, A^-1]."""

    __slots__ = ("_p", "_coeffs")

    def __init__(self, p: int, coeffs):
        if p < 2:
            raise ValueError(f"order must be >= 2, got {p}")
        expected = p // 2 + 1
        coeffs = [self._as_poly(c) for c in coeffs]
        if len(coeffs) != expected:
            raise ValueError(f"need exactly {expected} coefficients for p={p}, got {len(coeffs)}")
        self._p = p
        self._coeffs = tuple(coeffs)

    @staticmethod
    def _as_poly(c) -> LaurentPoly:
        poly = c if isinstance(c, LaurentPoly) else LaurentPoly("A", {0: c})
        if poly and poly.var != "A":
            raise ValueError(f"skein coefficients live in A, got variable {poly.var}")
        return poly

    @property
    def p(self) -> int:
        return self._p

    @property
    def coeffs(self) -> tuple[LaurentPoly, ...]:
        return self._coeffs

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._coeffs)

    def __add__(self, other: SkeinElement) -> SkeinElement:
        if not isinstance(other, SkeinElement):
            return NotImplemented
        if other._p != self._p:
            raise ValueError(f"order mismatch: {self._p} vs {other._p}")
        return SkeinElement(self._p, [a + b for a, b in zip(self._coeffs, other._coeffs)])

    def __sub__(self, other: SkeinElement) -> SkeinElement:
        if not isinstance(other, SkeinElement):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, factor) -> SkeinElement:
        """Multiply every coefficient by a Laurent polynomial (or scalar) in A."""
        factor = self._as_poly(factor)
        return SkeinElement(self._p, [c * factor for c in self._coeffs])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkeinElement):
            return NotImplemented
        return self._p == other._p and all(
            a == b for a, b in zip(self._coeffs, other._coeffs)
        )

    __hash__ = None

    def __repr__(self) -> str:
        parts = [f"({c!r})*mu_{i}" for i, c in enumerate(self._coeffs) if c]
        return " + ".join(parts) if parts else "0"

    # --- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """{"p": p, "coeffs": [polynomial per generator]}, polynomials as in codec."""
        return {"p": self._p, "coeffs": [poly_to_json(c) for c in self._coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> SkeinElement:
        p = field(data, "p", int)
        return cls(p, [poly_from_json("A", entries, p) for entries in field(data, "coeffs", list)])


def power_to_colored(p: int, c: int) -> SkeinElement:
    """x_c (c parallel meridians, the class of alpha^c) in the mu basis.

    Uses alpha e_0 = e_1 and alpha e_j = e_(j+1) + e_(j-1); all indices stay
    within 0..[p/2] because c <= [p/2].
    """
    size = p // 2 + 1
    if not 0 <= c <= p // 2:
        raise ValueError(f"x_{c} is outside the identified range 0..{p // 2} for p={p}")
    vec = [0] * size
    vec[0] = 1
    for _ in range(c):
        new = [0] * size
        for j in range(size):
            v = vec[j]
            if not v:
                continue
            if j + 1 < size:
                new[j + 1] += v
            if j >= 1:
                new[j - 1] += v
        vec = new
    return SkeinElement(p, vec)
