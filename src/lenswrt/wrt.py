"""The p-family of Laurent polynomials computing sqrt(r) * w_r(L(p,q), -).

For r = k (mod p) the invariant of the colored meridian mu_c is
f(p,q,c,k) evaluated at e^(2 pi i / 4pr), where f has the shape

    sign * (i / sqrt(2p)) * z^(12 p s(q,p) + q(c^2+2c))
         * (G_+ z^(2(c+1)) - G_- z^(-2(c+1)))

with sign = (-1)^(c+1) and G_+- generalized Gauss sums in Z[xi_p].
jeffrey_oracle evaluates the same invariant along an independent route
(a direct double sum with the framing correction phi), deliberately in
floating point, for cross-validation.  It keeps one level's frame between
calls (the roots of order 4rpq by residue, the scale and the framing
product of the last (p, q, r, precision) asked), so the colors of one
level share their roots; a call at another level replaces it.  Every root
of unity is a cyclotomic.unit_root, and every evaluator computes on raw
libmp (re, im) pairs, bit for bit the mpc arithmetic (see cyclotomic),
with no workprec block: eval_z_combination combines the colors' pairs,
taking sqrt(2p) and sqrt(r) once for all of them, and each public
function wraps its value in an mpmath.mpc once, on return.
"""

from __future__ import annotations

import functools

from .cyclotomic import _libmp, _to_mpc, _unit_parts, check_precision
from .gauss import _tabled_sum
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
    eval_meridian.  signed_body, the body with the sign folded in, is set at
    construction in a slot outside the fields, so that hash and repr see the
    three fields only; a copy or pickle is rebuilt from them.
    """

    __slots__ = ("__dict__", "signed_body")

    p: int
    prefactor_sign: int
    body: LaurentPoly

    def __post_init__(self):
        if self.prefactor_sign not in (1, -1):
            raise ValueError(f"prefactor sign must be +-1, got {self.prefactor_sign}")
        object.__setattr__(self, "signed_body", self.body if self.prefactor_sign == 1 else -self.body)

    def __reduce__(self):
        return FPolynomial, (self.p, self.prefactor_sign, self.body)

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
    p = space.p
    if not 0 <= k < p:
        raise ValueError(f"k must lie in [0, {p}), got {k}")
    key = (p, space.q, c, k)
    cached = _F_CACHE.get(key)
    if cached is not None:
        return cached
    body = LaurentPoly._make("z", _terms(space, c, k, 1))
    result = FPolynomial(p=p, prefactor_sign=-1 if c % 2 == 0 else 1, body=body)  # (-1)^(c+1)
    return _F_CACHE.setdefault(key, result)


def _gauss_terms(space: LensSpace, c: int, k: int) -> tuple:
    """((e0 + off, G_+), (e0 - off, G_-)) of f(p,q,c,k)'s body G_+ z^(e0+off) - G_- z^(e0-off)."""
    p, q, s = space.p, space.q, space.dedekind  # 12 p s is an integer, so the floor division is exact
    e0 = 12 * p * s.numerator // s.denominator + q * (c * c + 2 * c)
    a, b, off = q * k % p, q * c + q, 2 * (c + 1)
    return (e0 + off, _tabled_sum(p, a, (b + 1) % p)), (e0 - off, _tabled_sum(p, a, (b - 1) % p))


def _terms(space: LensSpace, c: int, k: int, sign: int) -> dict:
    """f(p,q,c,k)'s body times sign as terms, each sum negated once at most, zero sums dropped."""
    (hi, gp), (lo, gm) = _gauss_terms(space, c, k)
    terms = {hi: gp, lo: -gm} if sign == 1 else {hi: -gp, lo: gm}
    if hi == lo:  # c = -1: both sums at one exponent
        terms = {hi: gp - gm if sign == 1 else gm - gp}
    return {e: g for e, g in terms.items() if g}


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
    return _to_mpc(_meridian_parts(space, c, r, precision, *_level_sqrts(space.p, r, precision)))


def _level_sqrts(p: int, r: int, precision: int) -> tuple:
    """(sqrt(2p), sqrt(r)) at `precision` bits: what every color's meridian at level r divides by."""
    lm = _libmp()
    return lm.mpf_sqrt(lm.from_int(2 * p), precision, "n"), lm.mpf_sqrt(lm.from_int(r), precision, "n")


def _meridian_parts(space: LensSpace, c: int, r: int, precision: int, sqrt_2p: tuple, sqrt_r: tuple) -> tuple:
    """eval_meridian's raw (re, im) parts: (sign i / sqrt(2p)) times the body, over sqrt(r)."""
    lm = _libmp()
    mpc_div_mpf = lm.mpc_div_mpf
    fp = f_poly(space, c, r % space.p)
    value = fp.body._parts(4 * space.p * r, precision)
    scale = mpc_div_mpf((lm.fzero, lm.from_int(fp.prefactor_sign)), sqrt_2p, precision, "n")
    value = lm.mpc_mul(scale, value, precision, "n")
    return mpc_div_mpf(value, sqrt_r, precision, "n")


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
    lm = _libmp()
    mpc_add, mpc_mul = lm.mpc_add, lm.mpc_mul
    items = components.items() if isinstance(components, dict) else enumerate(components)
    total = lm.mpc_zero
    denom = 4 * space.p * r
    sqrts = _level_sqrts(space.p, r, precision)
    for c, comp in items:
        if comp.is_zero():
            continue
        term = mpc_mul(comp._parts(denom, precision), _meridian_parts(space, c, r, precision, *sqrts), precision, "n")
        total = mpc_add(total, term, precision, "n")
    return _to_mpc(total)


def jeffrey_oracle(space: LensSpace, c: int, r: int, precision: int = 53) -> mpmath.mpc:
    """w_r(L(p,q), mu_c) by the direct double sum with framing correction.

    Independent of the f-polynomial machinery: every root of unity is a
    cyclotomic.unit_root at the requested precision.  The underlying sum
    computes the invariant of (-1)^(l-1) mu_(l-1) with l = c + 1; the result
    is converted to plain mu_c.  The roots of order 4rpq are memoized by
    residue in the level's frame (_oracle_frame), which the next call at
    the same (p, q, r, precision) reuses: the residues (qg +- 1)^2 mod 4rpq
    repeat within one sum and across the colors of one level.  The whole
    value is computed on raw libmp parts in the order of the complex
    expression, so it is the same to the bit as the sum and products of
    mpc values.
    """
    check_precision(precision)
    if r < 2:
        raise ValueError(f"level parameter r must be >= 2, got {r}")
    lm = _libmp()
    mpf_add, mpf_sub, mpc_mul = lm.mpf_add, lm.mpf_sub, lm.mpc_mul
    p, q = space.p, space.q
    l = c + 1
    memo, scale, framing = _oracle_frame(space, r, precision)
    big = 4 * r * p * q
    big_mpf = lm.from_int(big)

    def unit(num: int) -> tuple:
        key = num % big
        value = memo.get(key)
        if value is None:
            value = memo[key] = _unit_parts(key, big, precision, big_mpf)
        return value

    re = im = lm.fzero
    for n in range(1, p + 1):
        g = l + 2 * r * n
        (ar, ai), (br, bi) = unit((q * g + 1) ** 2), unit((q * g - 1) ** 2)
        re = mpf_add(re, mpf_sub(ar, br, precision, "n"), precision, "n")
        im = mpf_add(im, mpf_sub(ai, bi, precision, "n"), precision, "n")
    value = mpc_mul(scale, mpc_mul(framing, (re, im), precision, "n"), precision, "n")
    if c % 2 == 1:
        value = lm.mpc_neg(value, precision, "n")
    return _to_mpc(value)


@functools.lru_cache(maxsize=1)
def _oracle_frame(space: LensSpace, r: int, precision: int) -> tuple:
    """One level's frame for jeffrey_oracle: (roots of order 4rpq by residue, (0, -1)/sqrt(2rp), framing).

    The framing product is e^(2 pi i (-phi)/4r) e^(2 pi i b/4rq).  Keyed by
    (p, q, r, precision), since a LensSpace hashes and compares by (p, q),
    and one frame is kept: the memo fills with at most 2p roots for each
    color asked at the level (the colors c and -c-2 share theirs), and a
    call at another level drops it.  A global cache of these roots, kept
    across levels, once raised the peak memory of a selftest process from
    20 to 31 MB.
    """
    lm = _libmp()
    p, q, b, phi = space.p, space.q, space.b, space.phi
    sqrt_2rp = lm.mpf_sqrt(lm.from_int(2 * r * p), precision, "n")
    scale = lm.mpc_div_mpf((lm.fzero, lm.fnone), sqrt_2rp, precision, "n")  # mpc(0, -1) / sqrt(2rp)
    framing = lm.mpc_mul(_unit_parts(-phi, 4 * r, precision), _unit_parts(b, 4 * r * q, precision), precision, "n")
    return {}, scale, framing
