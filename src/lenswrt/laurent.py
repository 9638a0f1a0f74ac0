"""Laurent polynomials in one variable over the one exact coefficient domain.

Every coefficient is a CyclotomicNumber: phi(N) integer numerators over
one denominator.  int and Fraction coefficients are converted once, when
a polynomial is constructed.  No zero coefficient is ever stored.
RationalFunction provides the fraction field needed for kernel
computations.  Both eval_at_unit_root methods wrap LaurentPoly._parts,
the one evaluator on raw libmp (re, im) pairs (see cyclotomic).

The arithmetic runs on plain term dicts (exponent -> coefficient):
terms_mul and terms_divmod are the one product and the one division,
shared by LaurentPoly and by the fraction-free elimination in analysis,
which runs them on int coefficients as well as CyclotomicNumber ones.
terms_gcd, a heuristic gcd of int term dicts, is proven by terms_divexact.
"""

from __future__ import annotations

import math
import operator

from .cyclotomic import CyclotomicNumber, as_cyclotomic, check_precision
from .cyclotomic import _embed_parts, _libmp, _to_mpc, _unit_parts

_ZERO = CyclotomicNumber.zero()


def _exact(c) -> CyclotomicNumber:
    x = as_cyclotomic(c)
    if x is None:
        raise TypeError(f"unsupported coefficient type {type(c).__name__}")
    return x


class LaurentPoly:
    """Map from integer exponents to exact coefficients, zero terms dropped."""

    __slots__ = ("_var", "_terms")

    def __init__(self, var: str, terms=None):
        self._var = var
        clean: dict[int, CyclotomicNumber] = {}
        if terms:
            for e, c in terms.items():
                e = operator.index(e)  # a float or str exponent is a TypeError, not truncated or parsed
                x = _exact(c)
                if x:
                    clean[e] = x
        self._terms = clean

    @staticmethod
    def _make(var: str, terms: dict[int, CyclotomicNumber]) -> LaurentPoly:
        """A polynomial from nonzero CyclotomicNumber terms, taken as they are."""
        result = LaurentPoly.__new__(LaurentPoly)
        result._var = var
        result._terms = terms
        return result

    def _operand(self, other) -> LaurentPoly | None:
        """other as a polynomial in this variable; None unless a polynomial or exact scalar."""
        if isinstance(other, LaurentPoly):
            return other
        c = as_cyclotomic(other)
        return None if c is None else LaurentPoly._make(self._var, {0: c} if c else {})

    # --- constructors -----------------------------------------------------

    @classmethod
    def one(cls, var: str) -> LaurentPoly:
        return cls(var, {0: 1})

    # --- accessors ----------------------------------------------------------

    @property
    def var(self) -> str:
        return self._var

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def items(self):
        return sorted(self._terms.items())

    def coeff(self, exponent: int) -> CyclotomicNumber:
        return self._terms.get(exponent, _ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def valuation(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self._terms)

    def degree(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(self._terms)

    def trailing_coeff(self):
        return self._terms[self.valuation()]

    def leading_coeff(self):
        return self._terms[self.degree()]

    def is_constant(self) -> bool:
        return not self._terms or set(self._terms) == {0}

    # --- arithmetic -----------------------------------------------------------

    def _check_var(self, other: LaurentPoly):
        if self._var != other._var and self._terms and other._terms:
            raise ValueError(f"variable mismatch: {self._var} vs {other._var}")

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        self._check_var(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out[e] + c if e in out else c
            if s:
                out[e] = s
            else:
                del out[e]
        return LaurentPoly._make(self._var if self._terms or not other._terms else other._var, out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._make(self._var, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            c = as_cyclotomic(other)
            return NotImplemented if c is None else self.scale(c)
        self._check_var(other)
        return LaurentPoly._make(self._var, terms_mul(self._terms, other._terms))

    __rmul__ = __mul__

    def scale(self, c) -> LaurentPoly:
        c = _exact(c)
        if not c:
            return LaurentPoly(self._var)
        return LaurentPoly._make(self._var, {e: v * c for e, v in self._terms.items()})

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by var^k."""
        return LaurentPoly._make(self._var, {e + k: c for e, c in self._terms.items()})

    def conj_coeffs(self) -> LaurentPoly:
        """Coefficient-wise complex conjugation (exponents untouched)."""
        return LaurentPoly._make(self._var, {e: c.conjugate() for e, c in self._terms.items()})

    def subst_signed_power(self, p: int, new_var: str) -> LaurentPoly:
        """Substitute var -> -(new_var)^p, e.g. A -> -z^p."""
        return LaurentPoly._make(
            new_var, {p * e: (c if e % 2 == 0 else -c) for e, c in self._terms.items()}
        )

    # --- exact division -----------------------------------------------------

    def divexact(self, other: LaurentPoly) -> LaurentPoly:
        """Exact quotient in the Laurent ring; raises if division leaves a remainder.

        The inverse of other's leading coefficient is kept on that coefficient,
        so dividing many polynomials by one divisor inverts it once.
        """
        self._check_var(other)
        return LaurentPoly._make(self._var, terms_divexact(self._terms, other._terms))

    def eval_at_unit_root(self, denominator: int, precision: int = 53):
        """Value at e^(2 pi i / denominator), each var^e a unit_root; ValueError for denominator < 1."""
        check_precision(precision)
        return _to_mpc(self._parts(denominator, precision))

    def _parts(self, denominator: int, precision: int) -> tuple:
        """eval_at_unit_root's raw (re, im) parts: each embedding times its unit_root, in term order."""
        if denominator < 1:
            raise ValueError(f"denominator must be >= 1, got {denominator}")
        lm = _libmp()
        mpc_add, mpc_mul = lm.mpc_add, lm.mpc_mul
        total = lm.mpc_zero
        for e, c in self._terms.items():
            term = mpc_mul(_embed_parts(c, precision), _unit_parts(e, denominator, precision), precision, "n")
            total = mpc_add(total, term, precision, "n")
        return total

    # --- comparisons ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if self._terms and other._terms and self._var != other._var:
            return False
        if set(self._terms) != set(other._terms):
            return False
        return all(other._terms[e] == c for e, c in self._terms.items())

    __hash__ = None

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.items():
            if e == 0:
                parts.append(f"({c})")
            elif e == 1:
                parts.append(f"({c})*{self._var}")
            else:
                parts.append(f"({c})*{self._var}^{e}")
        return " + ".join(parts)


def terms_mul(a: dict, b: dict, into: dict | None = None) -> dict:
    """into + a * b on term dicts (a fresh dict when into is None), zero terms
    dropped; into is updated in place and returned."""
    out = {} if into is None else into
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    for e in [e for e, c in out.items() if not c]:
        del out[e]
    return out


def terms_divmod(num: dict, den: dict) -> tuple[dict, dict]:
    """(quot, rem) with num = quot * den + rem on term dicts, den nonzero,
    monomials being units: rem has terms only below den's degree span above
    num's valuation.

    Each quotient coefficient is a leading coefficient of the running
    remainder divided by den's leading coefficient d: an int by divmod, where
    a nonzero remainder raises ArithmeticError, a CyclotomicNumber times the
    inverse that d keeps, so one divisor is inverted once.
    """
    if not den:
        raise ZeroDivisionError("Laurent division by zero")
    if not num:
        return {}, {}
    nshift, dshift = min(num), min(den)
    n = {e - nshift: c for e, c in num.items()}
    d = sorted((e - dshift, c) for e, c in den.items())
    ddeg, lead = d.pop()
    inv = None if isinstance(lead, int) else lead.inverse()
    quot = {}
    while n and (k := max(n) - ddeg) >= 0:
        c = n.pop(k + ddeg)
        if inv is None:
            c, r = divmod(c, lead)
            if r:
                raise ArithmeticError("integer coefficient division is not exact")
        else:
            c = c * inv
        quot[k + nshift - dshift] = c
        for e, dc in d:
            t = k + e
            s = n[t] - c * dc if t in n else -(c * dc)
            if s:
                n[t] = s
            else:
                del n[t]
    return quot, {e + nshift: c for e, c in n.items()}


def terms_divexact(num: dict, den: dict) -> dict:
    """num / den on term dicts; raises ArithmeticError if a remainder is left."""
    quot, rem = terms_divmod(num, den)
    if rem:
        raise ArithmeticError("division is not exact")
    return quot


def terms_gcd(polys: list[dict]) -> tuple[dict, list[dict]] | None:
    """(g, [a / g for a in polys]): g the gcd in Z[x], leading coefficient
    > 0, of nonzero int term dicts with exponents >= 0 and a(0) != 0, by
    the heuristic of Char, Geddes and Gonnet (GCDHEU, J. Symbolic Comput.
    7, 1989); None when none of six attempts is proven.

    An attempt reads gamma > 0, the gcd of the a(xi) at an integer
    xi >= 2 min |a| + 2 (|.| the largest absolute coefficient), back as G,
    its symmetric xi-adic digits (|digit| <= xi/2, the last > 0), and
    accepts h = G / c, c the gcd of the digits, iff every a / h is exact
    (terms_divexact).  Then h = g.  Proof: take a of least height.  Roots
    of a divisor of a have |r| < 1 + |a| (Cauchy), so a(xi), h(xi) != 0;
    xi cannot divide gamma, as it would divide a(xi) = a(0) mod xi, so
    h(0) != 0, the quotients are polynomials, and g = h k in Z[x] (h is
    primitive).  A nonconstant k has |k(xi)| > (xi - 1 - |a|)^deg k >=
    xi/2, yet k(xi) divides c (g(xi) divides gamma = c h(xi)), 0 < c <=
    xi/2; so k = 1, as g and h have leads > 0.  As in GCDHEU, xi starts
    at 2 min |a| + 29 and a failed attempt multiplies it by 73794/27011.
    """
    xi = 2 * min(max(map(abs, a.values())) for a in polys) + 29
    for _ in range(6):
        gamma = math.gcd(*(_value(a, xi) for a in polys))
        digits = []
        while gamma:
            gamma, d = divmod(gamma, xi)
            if 2 * d > xi:
                d -= xi
                gamma += 1
            digits.append(d)
        c = math.gcd(*digits)
        h = {e: d // c for e, d in enumerate(digits) if d}
        if h == {0: 1}:
            return h, list(polys)
        try:
            return h, [terms_divexact(a, h) for a in polys]
        except ArithmeticError:
            pass
        xi = xi * 73794 // 27011
    return None


def _value(terms: dict, x: int) -> int:
    """The int term dict, exponents >= 0, at x (Horner)."""
    value = 0
    for e in range(max(terms), -1, -1):
        value = value * x + terms.get(e, 0)
    return value


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic valuation-0 gcd of the polynomial parts (a unit times any common divisor)."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    var = a.var if a else b.var
    r0, r1 = a, b
    while not r1.is_zero():
        r0, r1 = r1, LaurentPoly._make(var, terms_divmod(r0._terms, r1._terms)[1])
    r0 = r0.shift(-r0.valuation())
    return r0.scale(r0.leading_coeff().inverse())


class RationalFunction:
    """Quotient of Laurent polynomials, reduced, denominator monic with valuation 0."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.one(num.var)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = LaurentPoly(num.var)
            self.den = LaurentPoly.one(num.var)
            return
        g = laurent_gcd(num, den)
        if not (g.is_constant() and g.coeff(0) == 1):
            num = num.divexact(g)
            den = den.divexact(g)
        # move the denominator's unit part (lead coeff and monomial) into num
        shift = den.valuation()
        unit = den.leading_coeff().inverse()
        den = den.shift(-shift).scale(unit)
        num = num.shift(-shift).scale(unit)
        self.num = num
        self.den = den

    @property
    def var(self) -> str:
        return self.num.var if self.num else self.den.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_polynomial(self) -> bool:
        return self.den == LaurentPoly.one(self.den.var)

    def as_polynomial(self) -> LaurentPoly:
        if not self.is_polynomial():
            raise ValueError(f"{self!r} is not a Laurent polynomial")
        return self.num

    def eval_at_unit_root(self, denominator: int, precision: int = 53):
        """Value at e^(2 pi i / denominator); no division when den is 1, ValueError when it is 0 there."""
        check_precision(precision)
        return _to_mpc(self._parts(denominator, precision))

    def _parts(self, denominator: int, precision: int) -> tuple:
        """eval_at_unit_root's raw (re, im) parts, the num's over the den's by mpc_div."""
        value = self.num._parts(denominator, precision)
        if self.is_polynomial():
            return value
        lm = _libmp()
        den = self.den._parts(denominator, precision)
        if den == lm.mpc_zero:
            raise ValueError(f"denominator {self.den!r} vanishes at e^(2 pi i / {denominator})")
        return lm.mpc_div(value, den, precision, "n")

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        r = RationalFunction.__new__(RationalFunction)
        r.num = -self.num
        r.den = self.den
        return r

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        other = self.num._operand(other)
        return None if other is None else RationalFunction(other)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def __repr__(self) -> str:
        if self.is_polynomial():
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"
