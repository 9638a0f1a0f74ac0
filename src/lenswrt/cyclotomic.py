"""Exact arithmetic in cyclotomic fields Q(xi_N), xi_N = e^(2 pi i / N).

This is the one exact coefficient domain of the package.  A value is
phi(N) integer numerators over one positive integer denominator, in
lowest terms:

    x = (n_0 + n_1 xi + ... + n_(phi(N)-1) xi^(phi(N)-1)) / den,

with the numerator reduced modulo the N-th cyclotomic polynomial, so
equality of values is equality of (numerators, denominator) after
lifting to a common order.  Products are integer convolutions, folded by
xi^(N/2) = -1 for an even N and by xi^N = 1 for an odd one, and then
divided by the monic Phi_N, whose remainder is the canonical form.  An
inverse is the product of the nontrivial Galois conjugates over the
integer norm, built by doubling along the orbits of the unit group (about
2 log2 phi(N) products) and kept on the number.  sum_of_products adds
many products at once: their numerators go unreduced into one integer
vector, which is reduced once.  int and Fraction values
enter through the constructor and leave through `.coeffs`; embed_complex
imports mpmath and reads the complex power basis from a table cached per
(N, precision).

unit_root is the package's one numeric root of unity: e^(2 pi i num/den)
at a given precision, computed by mpmath.libmp's cos/sin of pi times the
rounded argument, bit for bit the value of mpmath.expjpi.  The power-basis
table, Laurent evaluation, the Jeffrey oracle and the interpolation nodes
all take their roots from it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import add


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials, den monic."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n.
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod_int(poly, list(_order_data(d)[0]))
            if rem != [0]:
                raise AssertionError(f"cyclotomic division left a remainder at n={n}, d={d}")
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def _order_data(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """(Phi_n coefficients, its nonzero (exponent, coefficient) terms below the leading one)."""
    phi = cyclotomic_polynomial(n)
    return phi, tuple((i, c) for i, c in enumerate(phi[:-1]) if c)


def _reduce(order: int, vec: list[int]) -> list[int]:
    """phi(order) integers: vec, a polynomial in xi_order, reduced modulo Phi_order.

    vec is first folded below xi^(order/2) = -1 for an even order and below
    xi^order = 1 for an odd one, then divided by the monic Phi_order.
    """
    period, sign = (order // 2, -1) if order % 2 == 0 else (order, 1)
    for k in range(len(vec) - 1, period - 1, -1):
        if vec[k]:
            vec[k - period] += sign * vec[k]
    phi, tail = _order_data(order)
    deg = len(phi) - 1
    for j in range(min(len(vec), period) - 1, deg - 1, -1):  # subtract c x^(j-deg) Phi_order
        c = vec[j]
        if c:
            for i, t in tail:
                vec[j - deg + i] -= c * t
    vec[deg:] = []
    vec += [0] * (deg - len(vec))
    return vec


def _convolve(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    m = len(b)
    for i, ai in enumerate(a):
        if ai:
            out[i:i + m] = [o + ai * bj for o, bj in zip(out[i:i + m], b)]
    return out


def _make(order: int, num, den: int) -> CyclotomicNumber:
    """The number num / den (num: phi(order) ints, den > 0), brought to lowest terms."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    x = object.__new__(CyclotomicNumber)
    x._order = order
    x._num = tuple(num)
    x._den = den
    return x


def _rational_parts(value) -> tuple[int, int]:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")
    return value.numerator, value.denominator


def as_cyclotomic(value) -> CyclotomicNumber | None:
    """value itself, or an int or Fraction as a rational of order 1; None for anything else."""
    if isinstance(value, CyclotomicNumber):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return _make(1, [value.numerator], value.denominator)
    return None


def _common(x: CyclotomicNumber, y: CyclotomicNumber):
    if x._order == y._order:
        return x, y
    n = math.lcm(x._order, y._order)
    return x.lift(n), y.lift(n)


@functools.lru_cache(maxsize=None)
def _unit_steps(n: int) -> tuple[tuple[int, int], ...]:
    """(g_1, m_1), ..., (g_r, m_r) such that every unit mod n is
    g_1^e_1 ... g_r^e_r, 0 <= e_i < m_i, in exactly one way: m_i is the
    least m with g_i^m in the group of g_1..g_(i-1), and g_i is a unit
    whose m_i is largest.  A cyclic unit group takes one step."""
    units = [u for u in range(2, n) if math.gcd(u, n) == 1]
    group = {1}
    steps = []
    while len(group) <= len(units):
        best = (0, 0)
        for u in units:
            m, v = 1, u
            while v not in group:
                v, m = v * u % n, m + 1
            best = max(best, (m, u))
        m, g = best
        group = {h * pow(g, e, n) % n for h in group for e in range(m)}
        steps.append((g, m))
    return tuple(steps)


def _orbit_product(x: CyclotomicNumber, g: int, count: int) -> CyclotomicNumber:
    """x sigma_g(x) ... sigma_g^(count-1)(x) for count >= 1, sigma_g: xi -> xi^g,
    by doubling: about 2 log2(count) products."""
    n = x._order
    result, length = x, 1
    for bit in bin(count)[3:]:
        result = result * result.galois(pow(g, length, n))
        length *= 2
        if bit == "1":
            result = result * x.galois(pow(g, length, n))
            length += 1
    return result


def _nontrivial_conjugates(x: CyclotomicNumber) -> CyclotomicNumber:
    """The product of sigma_u(x) over the units u != 1 mod x.order.

    With the steps (g_i, m_i) of _unit_steps and P_0 = x, the product over
    the group of g_1..g_i is P_i = P_(i-1) R_i, where R_i is the product of
    sigma_(g_i^e)(P_(i-1)) over 1 <= e < m_i; so the answer is R_1 ... R_r.
    """
    steps = _unit_steps(x._order)
    conj = CyclotomicNumber.from_rational(1, x._order)
    for i, (g, m) in enumerate(steps):
        r = _orbit_product(x, g, m - 1).galois(g)
        conj = conj * r
        if i + 1 < len(steps):
            x = x * r
    return conj


class CyclotomicNumber:
    """An element of Q(xi_N): phi(N) integer numerators over one denominator."""

    __slots__ = ("_order", "_num", "_den", "_inverse")  # _inverse: set by inverse()

    def __init__(self, order: int, coeffs):
        """The value sum_j coeffs[j] xi_order^j, for int/Fraction coeffs, len(coeffs) <= order."""
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        parts = [_rational_parts(c) for c in coeffs]
        if len(parts) > order:
            raise ValueError(f"coefficient vector longer than order {order}")
        den = math.lcm(1, *(d for _, d in parts))
        x = _make(order, _reduce(order, [n * (den // d) for n, d in parts]), den)
        self._order, self._num, self._den = order, x._num, x._den

    # --- constructors ----------------------------------------------------

    @classmethod
    def from_rational(cls, value, order: int = 1) -> CyclotomicNumber:
        num, den = _rational_parts(value)
        return _make(order, _reduce(order, [num]), den)

    @classmethod
    def zero(cls, order: int = 1) -> CyclotomicNumber:
        return _make(order, _reduce(order, []), 1)

    # --- basic accessors -------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    @property
    def denominator(self) -> int:
        """The least positive integer d with d * self in Z[xi_N]."""
        return self._den

    @property
    def coeffs(self) -> tuple[int | Fraction, ...]:
        """Power-basis values as int or Fraction, indexed by exponent 0..order-1."""
        d = self._den
        vals = tuple(n // d if n % d == 0 else Fraction(n, d) for n in self._num)
        return vals + (0,) * (self._order - len(vals))

    def is_zero(self) -> bool:
        return not any(self._num)

    def __bool__(self) -> bool:
        return any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def image_mod(self, prime: int, root: int) -> int:
        """The image in F_prime under xi_N -> root, for root a zero of Phi_N
        mod prime (an element of exact order N): a ring map wherever the
        denominator is invertible.  The Horner value is reduced once, at the end."""
        value = 0
        for c in reversed(self._num):
            value = value * root + c
        return (value if self._den == 1 else value * pow(self._den, -1, prime)) % prime

    # --- order management -------------------------------------------------

    def lift(self, order: int) -> CyclotomicNumber:
        """Re-express in Q(xi_order); order must be a multiple of self.order."""
        if order == self._order:
            return self
        if order % self._order != 0:
            raise ValueError(f"cannot lift order {self._order} into order {order}")
        step = order // self._order
        vec = [0] * ((len(self._num) - 1) * step + 1)
        vec[::step] = self._num
        return _make(order, _reduce(order, vec), self._den)

    # --- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = as_cyclotomic(other)
        if o is None:
            return NotImplemented
        a, b = _common(self, o)
        if a._den == b._den:
            return _make(a._order, list(map(add, a._num, b._num)), a._den)
        da, db = a._den, b._den
        return _make(a._order, [x * db + y * da for x, y in zip(a._num, b._num)], da * db)

    __radd__ = __add__

    def __neg__(self) -> CyclotomicNumber:
        return _make(self._order, [-c for c in self._num], self._den)

    def __sub__(self, other):
        o = as_cyclotomic(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = as_cyclotomic(other)
        if o is None:
            return NotImplemented
        a, b = (o, self) if not any(o._num[1:]) else (self, o)
        if a._order != b._order and (b._order % a._order or any(a._num[1:])):
            a, b = _common(a, b)
        den = a._den * b._den
        if not any(a._num[1:]):  # a rational factor scales the other one in its own order
            r = a._num[0]
            return _make(b._order, [r * c for c in b._num], den)
        return _make(a._order, _reduce(a._order, _convolve(a._num, b._num)), den)

    __rmul__ = __mul__

    def inverse(self) -> CyclotomicNumber:
        """Multiplicative inverse: den times the product of the nontrivial Galois
        conjugates of the integral numerator a, over the integer norm N(a).
        Computed on the first call and kept on the number; threads that race
        on it store equal values."""
        inv = getattr(self, "_inverse", None)
        if inv is not None:
            return inv
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        n = self._order
        a = _make(n, self._num, 1)
        conj = _nontrivial_conjugates(a)
        norm = (a * conj)._num[0]
        sign = 1 if norm > 0 else -1
        self._inverse = _make(n, [sign * self._den * c for c in conj._num], abs(norm))
        return self._inverse

    def __truediv__(self, other):
        o = as_cyclotomic(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = as_cyclotomic(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # --- field automorphisms ----------------------------------------------

    def conjugate(self) -> CyclotomicNumber:
        """Complex conjugation: the field map xi_N -> xi_N^(-1)."""
        return self.galois(-1)

    def galois(self, a: int) -> CyclotomicNumber:
        """The map xi_N -> xi_N^a for a coprime to N."""
        n = self._order
        if math.gcd(a % n, n) != 1:
            raise ValueError(f"exponent {a} is not coprime to the order {n}")
        vec = [0] * n
        for j, c in enumerate(self._num):
            if c:
                vec[j * a % n] += c
        return _make(n, _reduce(n, vec), self._den)

    # --- comparisons --------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = as_cyclotomic(other)
        if o is None:
            return NotImplemented
        a, b = _common(self, o)
        return a._num == b._num and a._den == b._den

    def __hash__(self):
        # Tr(x)/phi(N), which does not depend on the order x is written in and
        # is x itself for rational x, so rationals hash like int and Fraction.
        # Tr(xi^j) / phi(N) = mu(m) / phi(m) for xi^j of order m, and mu(m) is
        # minus the second-highest coefficient of Phi_m.
        n, deg = self._order, len(self._num)
        trace = 0
        for j, c in enumerate(self._num):
            if c:
                phi_m = _order_data(n // math.gcd(j, n))[0]
                trace -= c * phi_m[-2] * (deg // (len(phi_m) - 1))
        return hash(Fraction(trace, deg * self._den))

    # --- display ---------------------------------------------------------------

    def __repr__(self) -> str:
        coeffs = self.coeffs
        if self.is_rational():
            return str(coeffs[0])
        terms = []
        for j, c in enumerate(coeffs):
            if not c:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                unit = f"zeta{self._order}" if j == 1 else f"zeta{self._order}^{j}"
                if c == 1:
                    terms.append(unit)
                elif c == -1:
                    terms.append(f"-{unit}")
                else:
                    terms.append(f"{c}*{unit}")
        return " + ".join(terms).replace("+ -", "- ")


def sum_of_products(pairs) -> CyclotomicNumber:
    """sum a * b over a list of pairs, a a CyclotomicNumber or an int and b a
    CyclotomicNumber, exactly, in the order N that adding the products
    gives: the lcm of all the factors' orders, an int's being 1.

    One pair is one product.  Otherwise every product's numerator goes,
    unreduced, into one integer vector in xi_N over the lcm of the
    products' denominators, and the vector is reduced modulo Phi_N once,
    and only when its degree reaches phi(N).  A rational factor only scales
    the other numerator, which is already reduced when the other factor is
    of order N; only two irrational factors are convolved.
    """
    if len(pairs) == 1:
        a, b = pairs[0]
        return a * b
    order = den = 1
    for a, b in pairs:
        if a.__class__ is int:
            order, den = math.lcm(order, b._order), math.lcm(den, b._den)
        else:
            order, den = math.lcm(order, a._order, b._order), math.lcm(den, a._den * b._den)
    deg = len(_order_data(order)[0]) - 1
    acc = [0] * deg

    def add(na, sa: int, nb, sb: int) -> None:
        """acc += (sum_i na[i] xi_N^(i sa)) (sum_j nb[j] xi_N^(j sb)), unreduced."""
        width = (len(nb) - 1) * sb + 1
        if len(acc) < (len(na) - 1) * sa + width:
            acc.extend([0] * ((len(na) - 1) * sa + width - len(acc)))
        for i, c in enumerate(na):
            if c:
                at = slice(i * sa, i * sa + width, sb)
                acc[at] = [s + c * v for s, v in zip(acc[at], nb)]

    for a, b in pairs:
        if a.__class__ is int:
            r, x = a * (den // b._den), b
        elif not any(b._num[1:]):
            r, x = b._num[0] * (den // (a._den * b._den)), a
        elif not any(a._num[1:]):
            r, x = a._num[0] * (den // (a._den * b._den)), b
        else:
            scale = den // (a._den * b._den)
            add([scale * c for c in a._num], order // a._order, b._num, order // b._order)
            continue
        if x._order == order and len(acc) == deg:  # r times x needs no spreading
            acc[:] = [s + r * c for s, c in zip(acc, x._num)]
        else:
            add((r,), 0, x._num, order // x._order)
    return _make(order, acc if len(acc) == deg else _reduce(order, acc), den)


def root_of_unity(order: int, exponent: int = 1) -> CyclotomicNumber:
    """Canonical form of xi_order^exponent."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    vec = [0] * order
    vec[exponent % order] = 1
    return _make(order, _reduce(order, vec), 1)


def unit_root(num: int, den: int, precision: int) -> mpmath.mpc:
    """e^(2 pi i num/den) at `precision` bits: the package's one root-of-unity evaluator.

    The value is bit for bit what mpmath.expjpi(mpf(2 (num mod den)) / den)
    returns under workprec(precision): the argument is rounded to nearest at
    `precision` bits and cos/sin of pi times it are taken at that precision.
    mpmath's own expjpi reaches the same libmp call only after a real-valued
    attempt fails with ComplexResult, which costs more than the sine itself.
    Raises ValueError for den < 1.
    """
    if den < 1:
        raise ValueError(f"denominator must be >= 1, got {den}")
    import mpmath
    from mpmath.libmp import from_int, mpf_cos_sin_pi, mpf_div
    arg = mpf_div(from_int(2 * (num % den), precision, "n"), from_int(den), precision, "n")
    return mpmath.mp.make_mpc(mpf_cos_sin_pi(arg, precision, "n"))


@functools.lru_cache(maxsize=None)
def _roots(n: int, precision: int) -> tuple[mpmath.mpc, ...]:
    """xi_n^j = unit_root(j, n) at `precision` bits for the power basis 0 <= j < phi(n)."""
    return tuple(unit_root(j, n, precision) for j in range(len(_order_data(n)[0]) - 1))


def check_precision(precision: int) -> None:
    """Refuse a working precision below double precision; every numeric evaluator calls this first."""
    if precision < 53:
        raise ValueError(f"precision must be >= 53 bits, got {precision}")


def embed_complex(x: CyclotomicNumber, precision: int = 53) -> mpmath.mpc:
    """Complex value of a CyclotomicNumber at `precision` bits."""
    check_precision(precision)
    import mpmath
    num, den = x._num, x._den
    with mpmath.workprec(precision):
        if x.is_rational():
            return mpmath.mpc(mpmath.mpf(num[0]) if den == 1 else mpmath.mpf(num[0]) / den)
        total = mpmath.mpc(0)
        roots = _roots(x.order, precision)
        for j, c in enumerate(num):
            if c:
                cf = mpmath.mpf(c) if den == 1 else mpmath.mpf(c) / den
                total += cf * roots[j]
        return total
