"""Exact arithmetic in cyclotomic fields Q(xi_N), xi_N = e^(2 pi i / N).

This is the one exact coefficient domain of the package.  A value is
phi(N) integer numerators over one positive integer denominator, in
lowest terms:

    x = (n_0 + n_1 xi + ... + n_(phi(N)-1) xi^(phi(N)-1)) / den,

with the numerator reduced modulo the N-th cyclotomic polynomial, so
equality of values is equality of (numerators, denominator) after
lifting to a common order.  Products are integer convolutions, folded by
xi^(N/2) = -1 for an even N and by xi^N = 1 for an odd one, and then
divided by the monic Phi_N, whose remainder is the canonical form.  A
convolution is one Kronecker substitution: each vector packed into one
int, one int product, the slots read back.  An inverse is the product of
the nontrivial Galois conjugates, one at a time, over the integer norm,
and is kept on the number.  A sum of products is plain + and *: analysis
reads the reduced numerators of the f-matrix once, as int rows, and
proves its answers on those without this module.  int and Fraction
values enter through the constructor and leave through `.coeffs`;
embed_complex reads the complex power basis from a table cached per
(N, precision).

unit_root is the package's one numeric root of unity: e^(2 pi i num/den)
at a given precision, computed by mpmath.libmp's cos/sin of pi times the
rounded argument, bit for bit the value of mpmath.expjpi.  The power-basis
table, Laurent evaluation, the Jeffrey oracle and the interpolation nodes
all take their roots from it.  The numeric evaluators here and in laurent
and wrt run on raw (re, im) pairs of mpmath.libmp values, making in order
the calls that mpc arithmetic under workprec makes, so each value is that
arithmetic's to the bit; each public one wraps its result in an mpc once.
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
    """The coefficients of (sum_i a_i x^i)(sum_j b_j x^j), by Kronecker
    substitution at x = 2^k: each vector becomes the one int sum c_j 2^(kj),
    the two are multiplied once, and the k-bit slots of the product are read
    back as signed values, lowest first; a slot read as negative borrows one
    from the slots above it.  k is the bit length of max|a| max|b|
    min(len a, len b), which bounds every coefficient of the product in
    absolute value, plus 1 for the sign.
    """
    k = (max(max(a), -min(a)) * max(max(b), -min(b)) * min(len(a), len(b))).bit_length() + 1
    x = 0
    for c in reversed(a):
        x = (x << k) + c
    y = 0
    for c in reversed(b):
        y = (y << k) + c
    x *= y
    mask, half, full = (1 << k) - 1, 1 << (k - 1), 1 << k
    out = []
    for _ in range(len(a) + len(b) - 1):
        d = x & mask
        x >>= k
        if d >= half:
            d -= full
            x += 1
        out.append(d)
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
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
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
        conjugates of the integral numerator a, sigma_u(a) for the units
        u != 1 mod N taken one at a time, over the integer norm N(a).
        Computed on the first call and kept on the number; threads that race
        on it store equal values."""
        inv = getattr(self, "_inverse", None)
        if inv is not None:
            return inv
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        n = self._order
        a = _make(n, self._num, 1)
        conj = CyclotomicNumber.from_rational(1, n)
        for u in range(2, n):
            if math.gcd(u, n) == 1:
                conj = conj * a.galois(u)
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
    return _to_mpc(_unit_parts(num, den, precision))


def _unit_parts(num: int, den: int, precision: int, den_mpf=None) -> tuple:
    """unit_root's raw (re, im) parts; den_mpf is from_int(den), if the caller has it."""
    if den < 1:
        raise ValueError(f"denominator must be >= 1, got {den}")
    lm = _libmp()
    arg = lm.mpf_div(_rounded_int(2 * (num % den), precision), den_mpf or lm.from_int(den), precision, "n")
    return lm.mpf_cos_sin_pi(arg, precision, "n")


def _rounded_int(n: int, precision: int) -> tuple:
    """from_int(n, precision, "n"), which is the exact from_int(n) when n fits in `precision` bits."""
    from_int = _libmp().from_int
    return from_int(n) if n.bit_length() <= precision else from_int(n, precision, "n")


@functools.cache
def _libmp():
    """mpmath.libmp, imported on the first numeric evaluation."""
    from mpmath import libmp
    return libmp


def _to_mpc(parts: tuple) -> mpmath.mpc:
    """An mpmath.mpc of raw (re, im) parts."""
    import mpmath
    return mpmath.mp.make_mpc(parts)


@functools.lru_cache(maxsize=None)
def _roots(n: int, precision: int) -> tuple[tuple, ...]:
    """The (re, im) parts of xi_n^j = unit_root(j, n) at `precision` bits for the power basis 0 <= j < phi(n)."""
    return tuple(_unit_parts(j, n, precision) for j in range(len(_order_data(n)[0]) - 1))


def check_precision(precision: int) -> None:
    """Refuse a working precision below double precision; every numeric evaluator calls this first."""
    if precision < 53:
        raise ValueError(f"precision must be >= 53 bits, got {precision}")


def embed_complex(x: CyclotomicNumber, precision: int = 53) -> mpmath.mpc:
    """Complex value of a CyclotomicNumber at `precision` bits."""
    check_precision(precision)
    return _to_mpc(_embed_parts(x, precision))


def _embed_parts(x: CyclotomicNumber, precision: int) -> tuple:
    """embed_complex's raw (re, im) parts: each (n_j / den) times the tabled xi^j, in order of j.

    A rational is converted directly; an irrational number's parts come
    from _embedded, which keeps the last 256 by (order, numerators, den,
    precision).
    """
    num, den = x._num, x._den
    if not any(num[1:]):
        lm = _libmp()
        cf = _rounded_int(num[0], precision)
        return (cf if den == 1 else lm.mpf_div(cf, lm.from_int(den), precision, "n")), lm.fzero
    return _embedded(x._order, num, den, precision)


@functools.lru_cache(maxsize=256)
def _embedded(order: int, num: tuple, den: int, precision: int) -> tuple:
    """The parts of the irrational number num / den of Q(xi_order), summed in order of j.

    Kept for the last 256 keys, since any value can be embedded: a Gauss
    sum of an f-polynomial body is embedded again at every level of its
    class mod p, and in every combination that holds it.
    """
    lm = _libmp()
    mpf_add, mpf_div, mpf_mul = lm.mpf_add, lm.mpf_div, lm.mpf_mul
    dv = None if den == 1 else lm.from_int(den)
    re = im = lm.fzero
    roots = _roots(order, precision)
    for j, c in enumerate(num):
        if c:
            cf = _rounded_int(c, precision)
            if dv is not None:
                cf = mpf_div(cf, dv, precision, "n")
            root_re, root_im = roots[j]
            re = mpf_add(re, mpf_mul(root_re, cf, precision, "n"), precision, "n")
            im = mpf_add(im, mpf_mul(root_im, cf, precision, "n"), precision, "n")
    return re, im
