"""The p-family of Laurent polynomials computing sqrt(r) * w_r(L(p,q), -).

For r = k (mod p) the invariant of the colored meridian mu_c is
f(p,q,c,k) evaluated at e^(2 pi i / 4pr), where f has the shape

    sign * (i / sqrt(2p)) * z^(12 p s(q,p) + q(c^2+2c))
         * (G_+ z^(2(c+1)) - G_- z^(-2(c+1)))

with sign = (-1)^(c+1) and G_+- generalized Gauss sums in Z[xi_p].
jeffrey_oracle evaluates the same invariant along an independent route
(a direct double sum with the framing correction phi), deliberately in
floating point, for cross-validation; it memoizes its roots of unity
within one call and keeps nothing between calls.  Every root of unity is a
cyclotomic.unit_root, and each evaluator imports mpmath.
"""

from __future__ import annotations

from .cyclotomic import check_precision, unit_root
from .gauss import g_pm
from .laurent import LaurentPoly
from .numtheory import dedekind_sum, lens_matrix, rademacher_phi
from .record import record
from .skein import SkeinElement


class LensSpace:
    """Validated surgery data (p, q) with the derived quantities used throughout.

    b and d are read off the gluing matrix ((q, b), (p, d)) of lens_matrix:
    d = q* mod p, b = (qd - 1)/p (so qd - bp = 1); dedekind = s(q, p), and
    phi is the framing-correction integer of the gluing matrix.
    """

    __slots__ = ("p", "q", "d", "b", "dedekind", "phi")

    def __init__(self, p: int, q: int):
        (_, self.b), (_, self.d) = lens_matrix(p, q)
        self.p = p
        self.q = q
        self.dedekind = dedekind_sum(q, p)
        self.phi = rademacher_phi(p, q)
        if (6 * p * self.dedekind).denominator != 1:
            raise AssertionError(f"6 p s(q,p) is not an integer at ({p}, {q})")

    def __repr__(self) -> str:
        return f"LensSpace({self.p}, {self.q})"

    def __eq__(self, other) -> bool:
        return isinstance(other, LensSpace) and (self.p, self.q) == (other.p, other.q)

    def __hash__(self):
        return hash((self.p, self.q))


@record
class FPolynomial:
    """prefactor_sign * (i / sqrt(2p)) * body(z), body over Q(xi_p).

    The scalar i / sqrt(2p) is kept symbolic; it is only multiplied in by
    eval_meridian.
    """

    p: int
    prefactor_sign: int
    body: LaurentPoly

    def __post_init__(self):
        if self.prefactor_sign not in (1, -1):
            raise ValueError(f"prefactor sign must be +-1, got {self.prefactor_sign}")

    @property
    def signed_body(self) -> LaurentPoly:
        """body with the (-1)^(c+1) sign folded in; the full value divided by i/sqrt(2p)."""
        return self.body if self.prefactor_sign == 1 else -self.body

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FPolynomial):
            return NotImplemented
        return self.p == other.p and self.signed_body == other.signed_body


_F_CACHE: dict[tuple[int, int, int, int], FPolynomial] = {}


def f_poly(space: LensSpace, c: int, k: int) -> FPolynomial:
    """The Laurent polynomial attached to (L(p,q), mu_c) on the class r = k mod p.

    Cached by (p, q, c, k); repeated calls return the same object, from any
    thread: dict.setdefault keeps the first insertion of a key.
    """
    p, q = space.p, space.q
    if not 0 <= k < p:
        raise ValueError(f"k must lie in [0, {p}), got {k}")
    key = (p, q, c, k)
    cached = _F_CACHE.get(key)
    if cached is not None:
        return cached
    s = space.dedekind  # 12 p s is an integer, so the floor division is exact
    e0 = 12 * p * s.numerator // s.denominator + q * (c * c + 2 * c)
    gp = g_pm(p, q, c, k, +1)
    gm = g_pm(p, q, c, k, -1)
    off = 2 * (c + 1)
    # G_+ z^(e0+off) - G_- z^(e0-off); the exponents meet only at c = -1
    terms = {e0 + off: gp, e0 - off: -gm} if off else {e0: gp - gm}
    body = LaurentPoly._make("z", {e: g for e, g in terms.items() if g})
    sign = -1 if c % 2 == 0 else 1  # (-1)^(c+1)
    result = FPolynomial(p=p, prefactor_sign=sign, body=body)
    return _F_CACHE.setdefault(key, result)


def f_link(space: LensSpace, element: SkeinElement, k: int) -> FPolynomial:
    """sum_c f(p,q,c,k) C_c(-z^p) for a skein element with coefficients C_c(A)."""
    if element.p != space.p:
        raise ValueError(f"skein element of order {element.p} in L({space.p},{space.q})")
    total = LaurentPoly("z")
    for c, coeff in enumerate(element.coeffs):
        if coeff.is_zero():
            continue
        fp = f_poly(space, c, k)
        total = total + fp.signed_body * coeff.subst_signed_power(space.p, "z")
    return FPolynomial(p=space.p, prefactor_sign=1, body=total)


def eval_meridian(space: LensSpace, c: int, r: int, precision: int = 53) -> mpmath.mpc:
    """w_r(L(p,q), mu_c): the f-polynomial at z = e^(2 pi i / 4pr), divided by sqrt(r)."""
    check_precision(precision)
    if r < 2:
        raise ValueError(f"level parameter r must be >= 2, got {r}")
    import mpmath
    fp = f_poly(space, c, r % space.p)
    with mpmath.workprec(precision):
        value = fp.body.eval_at_unit_root(4 * space.p * r, precision)
        scale = mpmath.mpc(0, fp.prefactor_sign) / mpmath.sqrt(2 * fp.p)
        return scale * value / mpmath.sqrt(r)


def eval_link(space: LensSpace, element: SkeinElement, r: int, precision: int = 53) -> mpmath.mpc:
    """w_r(L(p,q), J) for a skein element J: its coefficients C_c(-z^p) as z-components."""
    if element.p != space.p:
        raise ValueError(f"skein element of order {element.p} in L({space.p},{space.q})")
    components = [coeff.subst_signed_power(space.p, "z") for coeff in element.coeffs]
    return eval_z_combination(space, components, r, precision)


def eval_z_combination(space: LensSpace, components, r: int, precision: int = 53) -> mpmath.mpc:
    """w_r of sum_c v_c(z) mu_c: the sum of v_c(zeta) * w_r(mu_c) at zeta = e^(2 pi i / 4pr).

    components is a sequence indexed by color, or a mapping color -> v_c
    for any integer colors; each v_c is a LaurentPoly or RationalFunction
    in z.  This is the one place that combines colors: ordinary skein
    elements (eval_link), extended classes such as kernel vectors, and
    single meridians all evaluate here.
    """
    check_precision(precision)
    if r < 2:
        raise ValueError(f"level parameter r must be >= 2, got {r}")
    import mpmath
    items = components.items() if isinstance(components, dict) else enumerate(components)
    with mpmath.workprec(precision):
        total = mpmath.mpc(0)
        denom = 4 * space.p * r
        for c, comp in items:
            if comp.is_zero():
                continue
            total += comp.eval_at_unit_root(denom, precision) * eval_meridian(space, c, r, precision)
        return total


def jeffrey_oracle(space: LensSpace, c: int, r: int, precision: int = 53) -> mpmath.mpc:
    """w_r(L(p,q), mu_c) by the direct double sum with framing correction.

    Independent of the f-polynomial machinery: every root of unity is a
    cyclotomic.unit_root at the requested precision.  The underlying sum
    computes the invariant of (-1)^(l-1) mu_(l-1) with l = c + 1; the result
    is converted to plain mu_c.  The roots of order 4rpq are memoized by
    residue for this call only (the residues (qg +- 1)^2 mod 4rpq repeat
    within one sum), and the sum is accumulated on their raw real and
    imaginary parts in the order of the complex sum, so the value is the same
    to the bit as summing mpc values.
    """
    check_precision(precision)
    if r < 2:
        raise ValueError(f"level parameter r must be >= 2, got {r}")
    import mpmath
    from mpmath.libmp import fzero, mpf_add, mpf_sub
    p, q, b, phi = space.p, space.q, space.b, space.phi
    l = c + 1
    big = 4 * r * p * q
    memo: dict[int, tuple] = {}

    def unit(num: int) -> tuple:
        key = num % big
        value = memo.get(key)
        if value is None:
            value = memo[key] = unit_root(key, big, precision)._mpc_
        return value

    re = im = fzero
    for n in range(1, p + 1):
        g = l + 2 * r * n
        (ar, ai), (br, bi) = unit((q * g + 1) ** 2), unit((q * g - 1) ** 2)
        re = mpf_add(re, mpf_sub(ar, br, precision, "n"), precision, "n")
        im = mpf_add(im, mpf_sub(ai, bi, precision, "n"), precision, "n")
    with mpmath.workprec(precision):
        total = mpmath.mp.make_mpc((re, im))
        value = mpmath.mpc(0, -1) / mpmath.sqrt(2 * r * p)
        value *= unit_root(-phi, 4 * r, precision) * unit_root(b, 4 * r * q, precision) * total
        if c % 2 == 1:
            value = -value
        return value
