"""Exact linear algebra over Laurent polynomials and rational functions.

Builds the p x ([p/2]+1) matrix of f-polynomial bodies, computes its rank
and kernel by fraction-free (Bareiss) elimination, produces the explicit
nonsingular-submatrix certificates for p prime or twice an odd prime,
recovers skein coefficients from a full set of link polynomials, and
decides whether a rational-function skein class is a unit multiple of an
ordinary one (integer coefficients in A = -z^p).
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

from .codec import coeff_terms_to_json
from .cyclotomic import CyclotomicNumber
from .errors import (
    BadConditioning,
    Inconsistent,
    RankDeficient,
    UnderDetermined,
    UnsupportedOrder,
)
from .gauss import GaussSumSpec, gauss_sum
from .laurent import LaurentPoly, RationalFunction, laurent_gcd
from .numtheory import is_prime, mod_inverse
from .skein import SkeinElement
from .wrt import LensSpace, f_poly


@dataclass(frozen=True)
class LaurentMatrix:
    """Entries indexed by congruence class k (rows) and color c (columns)."""

    entries: tuple[tuple[LaurentPoly, ...], ...]

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


@dataclass(frozen=True)
class RationalFunctionVector:
    """A kernel direction, normalized to Laurent-polynomial components.

    Components are scaled so that common polynomial content is removed and
    the highest-index nonzero component has valuation 0 and trailing
    coefficient 1.
    """

    components: tuple[LaurentPoly, ...]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __iter__(self):
        return iter(self.components)

    def same_line(self, other) -> bool:
        """True iff the two vectors are proportional (equal as lines)."""
        comps = tuple(other)
        if len(comps) != len(self.components):
            return False
        for i in range(len(comps)):
            for j in range(len(comps)):
                if not self.components[i] * comps[j] == self.components[j] * comps[i]:
                    return False
        return True


def build_f_matrix(space: LensSpace) -> LaurentMatrix:
    """The p x ([p/2]+1) matrix of signed f-polynomial bodies.

    Entry (k, c) is (-1)^(c+1) body(p,q,c,k): the full polynomial divided
    by the global scalar i/sqrt(2p), so rank and kernel coincide with
    those of the actual f-matrix.
    """
    p = space.p
    cols = range(p // 2 + 1)
    entries = tuple(
        tuple(f_poly(space, c, k).signed_body for c in cols) for k in range(p)
    )
    return LaurentMatrix(entries=entries)


# --- fraction-free elimination ------------------------------------------------


def _strip_row(row: list[LaurentPoly]) -> list[LaurentPoly]:
    """Divide a row by its common monomial z^v (a unit; rank/kernel safe)."""
    vals = [e.valuation() for e in row if e]
    if not vals:
        return row
    v = min(vals)
    if v == 0:
        return row
    return [e.shift(-v) if e else e for e in row]


def _bareiss_echelon(rows: list[list[LaurentPoly]], pivot_cols: int):
    """In-place fraction-free row echelon; returns the (row, col) pivots and
    whether the row swaps made an odd permutation.

    Only columns < pivot_cols are eligible as pivots, but updates span the
    whole row (so augmented columns are transformed consistently).  Rows
    are rescaled by monomial units to keep exponents small; constant rows
    are left as they are, so on a square constant matrix with a full set
    of pivots the last pivot is the determinant up to the swap sign.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[tuple[int, int]] = []
    odd = False
    prev: LaurentPoly | None = None
    r = 0
    for col in range(min(pivot_cols, ncols)):
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            odd = not odd
        pivot_entry = rows[r][col]
        for i in range(r + 1, nrows):
            row_i = rows[i]
            factor = row_i[col]
            for j in range(col + 1, ncols):
                num = pivot_entry * row_i[j] - factor * rows[r][j]
                row_i[j] = num.divexact(prev) if prev is not None and num else num
            row_i[col] = LaurentPoly(row_i[col].var)
            rows[i] = _strip_row(row_i)
        pivots.append((r, col))
        prev = pivot_entry
        r += 1
        if r == nrows:
            break
    return pivots, odd


def rank(matrix: LaurentMatrix) -> int:
    """Exact rank over the rational-function field."""
    rows = [_strip_row(list(row)) for row in matrix.entries]
    if not rows:
        return 0
    pivots, _ = _bareiss_echelon(rows, matrix.ncols)
    return len(pivots)


def kernel(space: LensSpace) -> list[RationalFunctionVector]:
    """Basis of { v : sum_c M[k][c] v_c = 0 for all k }, normalized."""
    matrix = build_f_matrix(space)
    rows = [_strip_row(list(row)) for row in matrix.entries]
    ncols = matrix.ncols
    pivots, _ = _bareiss_echelon(rows, ncols)
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        vec = [RationalFunction.from_scalar(0, "z") for _ in range(ncols)]
        vec[f] = RationalFunction.from_scalar(1, "z")
        basis.append(_normalize_kernel_vector(_back_substitute(rows, pivots, vec)))
    return basis


def _back_substitute(rows, pivots, x: list[RationalFunction], rhs_col: int | None = None):
    """Solve echelon rows for the pivot entries of x, in place, last pivot first:
    x[col] = (rhs - sum_(j > col) a_rj x_j) / a_r,col over the rational functions.

    x arrives with its free entries set; rhs is column rhs_col of each row,
    or zero when rhs_col is None.
    """
    for row_idx, col in reversed(pivots):
        row = rows[row_idx]
        acc = RationalFunction(row[rhs_col] if rhs_col is not None else LaurentPoly("z"))
        for j in range(col + 1, len(x)):
            if row[j] and x[j]:
                acc = acc - RationalFunction(row[j]) * x[j]
        x[col] = acc / RationalFunction(row[col])
    return x


def _normalize_kernel_vector(vec: list[RationalFunction]) -> RationalFunctionVector:
    var = "z"
    common = LaurentPoly.one(var)
    for v in vec:
        if not v.is_zero() and not v.is_polynomial():
            g = laurent_gcd(common, v.den)
            common = common * v.den.divexact(g)
    polys = [(v * common).as_polynomial() for v in vec]
    nonzero = [w for w in polys if w]
    if not nonzero:
        return RationalFunctionVector(components=tuple(polys))
    content = nonzero[0]
    for w in nonzero[1:]:
        if content.is_constant() and content.coeff(0) == 1:
            break
        content = laurent_gcd(content, w)
    if not (content.is_constant() and content.coeff(0) == 1):
        polys = [w.divexact(content) if w else w for w in polys]
    last = next(w for w in reversed(polys) if w)
    unit_scale = last.trailing_coeff().inverse()
    shift = -last.valuation()
    polys = [w.shift(shift).scale(unit_scale) if w else w for w in polys]
    return RationalFunctionVector(components=tuple(polys))


# --- index selections and determinant certificates -----------------------------


def hat_c(p: int, q: int, c: int) -> int:
    """The color with q * hat_c + q + 1 = c (mod p), i.e. q*(c-1) - 1 mod p."""
    qstar = mod_inverse(q, p)
    return (qstar * (c - 1) - 1) % p


@dataclass(frozen=True)
class SubmatrixCertificate:
    """Row/column selections with an exact nonzero-determinant witness."""

    row_selection: tuple[int, ...]  # values of k
    col_selection: tuple[int, ...]  # values of c (colors, possibly > [p/2])
    entries: tuple[tuple[CyclotomicNumber, ...], ...]
    determinant: CyclotomicNumber

    @property
    def nonzero(self) -> bool:
        return not self.determinant.is_zero()

    def to_json(self) -> dict:
        return {
            "rows": list(self.row_selection),
            "cols": list(self.col_selection),
            "order": self.determinant.order,
            "entries": [[coeff_terms_to_json(e) for e in row] for row in self.entries],
            "determinant": coeff_terms_to_json(self.determinant),
            "nonzero": self.nonzero,
        }


def fullrank_submatrix(space: LensSpace) -> SubmatrixCertificate:
    """The explicit square Gauss-sum submatrix selections for p prime or 2s.

    Returns the selected row indices (k values), column colors, the exact
    entry matrix [G_+(p,q,col[c],row[k])], and its determinant.
    """
    p, q = space.p, space.q
    if is_prime(p):
        half = p // 2
        deltas = [0] + [mod_inverse(k, p) for k in range(1, half + 1)]
        gammas = [hat_c(p, q, c) for c in range(half + 1)]
    elif p % 2 == 0 and is_prime(p // 2) and (p // 2) % 2 == 1:
        s = p // 2
        even_cs = list(range(0, s, 2))
        odd_cs = list(range(1, s + 1, 2))
        gammas = [hat_c(p, q, c) for c in even_cs + odd_cs]
        deltas = [0]
        deltas += [2 * mod_inverse(j, s) for j in range(1, (s - 1) // 2 + 1)]
        deltas += [mod_inverse(j, p) for j in range(1, s - 1, 2)]
        deltas += [s]
    else:
        raise UnsupportedOrder(f"no selection construction for p = {p}")
    entries = tuple(
        tuple(gauss_sum(GaussSumSpec(p, q * k, q * c + q + 1)) for c in gammas)
        for k in deltas
    )
    rows = [[LaurentPoly("z", {0: e}) for e in row] for row in entries]
    pivots, odd = _bareiss_echelon(rows, len(rows))
    det = rows[-1][-1].coeff(0) if len(pivots) == len(rows) else CyclotomicNumber.zero(p)
    return SubmatrixCertificate(
        row_selection=tuple(deltas),
        col_selection=tuple(gammas),
        entries=entries,
        determinant=-det if odd else det,
    )


# --- solving the link system ----------------------------------------------------


@dataclass(frozen=True)
class RecoveredSkein:
    """Solution of the link system: coordinates C_c(-z^p), plus the A-form
    when every coordinate is an integer-exponent-in-p Laurent polynomial
    with rational coefficients."""

    z_components: tuple[RationalFunction, ...]
    a_form: SkeinElement | None


def recover_skein(space: LensSpace, fpolys) -> RecoveredSkein:
    """Solve sum_c M[k][c] x_c = fpolys[k] for all k (signed-body convention).

    fpolys must hold one Laurent polynomial per k = 0..p-1, in the same
    normalization as f_link(...).signed_body.  Raises RankDeficient unless
    the matrix has full column rank, Inconsistent if the right-hand side
    is outside the column span.
    """
    p = space.p
    fpolys = list(fpolys)
    if len(fpolys) != p:
        raise ValueError(f"need one polynomial per k = 0..{p - 1}, got {len(fpolys)}")
    matrix = build_f_matrix(space)
    ncols = matrix.ncols
    rows = [list(row) + [fp] for row, fp in zip(matrix.entries, fpolys)]
    pivots, _ = _bareiss_echelon(rows, ncols)
    if len(pivots) < ncols:
        raise RankDeficient(
            f"f-matrix of L({space.p},{space.q}) has rank {len(pivots)} < {ncols}"
        )
    for i in range(len(pivots), p):
        if rows[i][ncols]:
            raise Inconsistent("right-hand side is not in the column span")
    x = [RationalFunction.from_scalar(0, "z") for _ in range(ncols)]
    _back_substitute(rows, pivots, x, ncols)
    a_form = _try_a_form(space.p, x)
    return RecoveredSkein(z_components=tuple(x), a_form=a_form)


def _try_a_form(p: int, components: list[RationalFunction]) -> SkeinElement | None:
    coeffs = []
    for comp in components:
        if not comp.is_polynomial():
            return None
        poly = comp.as_polynomial()
        terms = {}
        for e, c in poly.items():
            if e % p != 0 or not c.is_rational():
                return None
            terms[e // p] = c if (e // p) % 2 == 0 else -c
        coeffs.append(LaurentPoly("A", terms))
    return SkeinElement(p, coeffs)


# --- the ordinary-skein-module obstruction ----------------------------------------


def lambda_membership(vector, p: int) -> bool:
    """Whether a nonzero rational-function multiple of the vector has all
    components in Z[(-z^p)^(+-1)] (the coefficient lattice of ordinary
    skein classes).

    Decided exactly: it holds iff every componentwise ratio v_c / v_ref is
    a rational function of z^p with rational coefficients.
    """
    comps = [c.as_polynomial() if isinstance(c, RationalFunction) else c for c in vector]
    nonzero = [c for c in comps if c]
    if not nonzero:
        return True
    ref = nonzero[-1]
    for comp in nonzero:
        ratio = RationalFunction(comp, ref)
        for poly in (ratio.num, ratio.den):
            if any(e % p != 0 or not c.is_rational() for e, c in poly.items()):
                return False
    return True


# --- numeric interpolation of an f-polynomial from samples -------------------------


@dataclass(frozen=True)
class NumericPoly:
    """A Laurent polynomial with complex coefficients, as interpolate_f recovers it."""

    var: str
    terms: dict[int, complex]

    def coeff(self, exponent: int) -> complex:
        return self.terms.get(exponent, 0)

    def is_zero(self) -> bool:
        return not self.terms


def interpolate_f(
    space: LensSpace,
    samples,
    k: int,
    window: tuple[int, int] | None = None,
    deg_a: int = 0,
    tol: float = 1e-6,
    precision: int = 53,
):
    """Recover the Laurent polynomial behind sqrt(r) w_r samples on one
    congruence class.

    samples: iterable of (r, complex value of sqrt(r) * w_r); all r must be
    congruent to k mod p and the values may be ordinary complex numbers or
    mpmath.mpc at any precision.  The exponent window defaults to the
    support bound for degree-deg_a coefficients: with e = 12 p s(q,p) and
    m = [p/2], the body of color c contributes e + q(c^2+2c) +- 2(c+1), so
    the window is [e - 2 - p*deg_a, e + q m(m+2) + 2(m+1) + p*deg_a].

    The evaluation points cluster near 1, so the square system (smallest
    levels) is solved at elevated working precision and the solution is
    validated against every remaining sample.  Returns (NumericPoly,
    residual); raises UnderDetermined or BadConditioning.
    """
    p = space.p
    pts = sorted(((int(r), v) for r, v in samples), key=lambda rv: rv[0])
    for r, _ in pts:
        if r % p != k % p:
            raise ValueError(f"sample at r={r} is not in the class {k} mod {p}")
        if r < 2:
            raise ValueError(f"level parameter r must be >= 2, got {r}")
    if len({r for r, _ in pts}) != len(pts):
        raise ValueError("duplicate sample levels")
    if window is None:
        e_mid = int(12 * p * space.dedekind)
        m = p // 2
        window = (
            e_mid - 2 - p * deg_a,
            e_mid + space.q * m * (m + 2) + 2 * (m + 1) + p * deg_a,
        )
    lo, hi = window
    exponents = list(range(lo, hi + 1))
    width = len(exponents)
    if len(pts) < width:
        raise UnderDetermined(f"{len(pts)} samples cannot determine {width} coefficients")
    with mpmath.workprec(precision + 16 * width):
        pts = [(r, mpmath.mpc(v)) for r, v in pts]

        def point(r: int) -> mpmath.mpc:
            return mpmath.expjpi(mpmath.mpf(2) / (4 * p * r))

        vmat = mpmath.matrix(width, width)
        rhs = mpmath.matrix(width, 1)
        for i in range(width):
            z = point(pts[i][0])
            rhs[i] = pts[i][1]
            for j, e in enumerate(exponents):
                vmat[i, j] = z ** e
        lu, perm = mpmath.mp.LU_decomp(vmat)
        coeffs = mpmath.mp.U_solve(lu, mpmath.mp.L_solve(lu, rhs, perm))
        scale = max(mpmath.mpf(1), max(abs(v) for _, v in pts))
        # a fit can be exact while the coefficients are not: re-solve with each
        # sample moved by one rounding, 2^-precision of the sample scale, in
        # alternating directions (an exact zero has no rounding and stays), and
        # see how far the coefficients follow
        eps = mpmath.ldexp(scale, -precision)
        bumped = mpmath.matrix([rhs[i] + (-1) ** i * eps if rhs[i] else rhs[i] for i in range(width)])
        moved = mpmath.mp.U_solve(lu, mpmath.mp.L_solve(lu, bumped, perm))
        drift = max(abs(moved[j] - coeffs[j]) for j in range(width))
        if drift > tol * scale:
            raise BadConditioning(
                f"coefficients move by {mpmath.nstr(drift, 3)} under a 2^-{precision} change of the samples"
            )
        residual = mpmath.mpf(0)
        for r, v in pts:
            z = point(r)
            fit = mpmath.fsum(coeffs[j] * z ** e for j, e in enumerate(exponents))
            residual = max(residual, abs(fit - v))
        if residual > tol * scale:
            raise BadConditioning(f"residual {mpmath.nstr(residual, 3)} exceeds tolerance")
    poly = NumericPoly("z", {e: complex(coeffs[j]) for j, e in enumerate(exponents) if coeffs[j]})
    return poly, float(residual)
