"""Exact linear algebra over Laurent polynomials and rational functions.

Builds the p x ([p/2]+1) matrix of f-polynomial bodies and computes its
rank and kernel, and recovers skein coefficients from a full set of link
polynomials.  The matrix is read once, as rows of plain term dicts
(exponent -> coefficient, one dict per column), and every step below runs
on such rows:

- one image test mod l: the matrix is mapped to F_l (l = 1 mod p prime,
  xi_p -> an element of exact order p, z -> a fixed point t), and the
  pivot rows of that image, whose nonzero minor proves them independent,
  bound the rank from below; when they number ncols less the zero
  columns (an odd color c when p = 0 mod 4), the unit vectors e_c of
  those columns are the kernel basis and the computation ends;
- descent to Q(z): xi -> xi^u maps row k to row k/u and fixes z, so the
  kernel has a basis over Q(z).  The power-basis coordinates of one row
  per divisor d of p (row d mod p) are at most tau(p) phi(p) rows over
  Q[z, 1/z], made as int rows, each cleared of its denominators; the
  refinement loop below finds their kernel.  It is the answer when it
  meets both bounds: every vector annihilates all p rows exactly
  (rank <= ncols - #basis) and the image pivot rows of the matrix number
  ncols - #basis.  Otherwise the loop runs over Q(xi_p)(z), on the
  matrix's own image pivot rows;
- one refinement loop: fraction-free (Bareiss) elimination on the
  selected rows, then fraction-free back-substitution: int coefficients
  on the descended rows, CyclotomicNumber ones over Q(xi_p), with one
  exact division (laurent.terms_divmod) for both.  With D the last pivot,
  each kernel vector has D at its free column (a zero column has no
  pivot, so its vector normalizes to e_c); then an exact proof on all
  rows: M v = 0 for every vector, which bounds the rank from above.  A
  row that a vector fails is independent of the selection; it joins the
  selection, which is eliminated again.  A row times a vector adds plain
  ints on int rows; otherwise each exponent's products are summed by
  cyclotomic.sum_of_products, reduced once.

A solution of M x = b is the proven kernel vector (v, d) of [M | -b],
x = v / d; an empty kernel proves there is none.

Kernel vectors are normalized: common polynomial content removed, the
highest-index nonzero component of valuation 0 and trailing coefficient
1.  The module also produces the explicit nonsingular-submatrix
certificates for p prime or twice an odd prime, and decides whether a
rational-function skein class is a unit multiple of an ordinary one
(integer coefficients in A = -z^p).
"""

from __future__ import annotations

import functools
import math
import operator

from .codec import coeff_terms_to_json
from .cyclotomic import CyclotomicNumber, check_precision, sum_of_products, unit_root
from .errors import (
    BadConditioning,
    Inconsistent,
    RankDeficient,
    UnderDetermined,
    UnsupportedOrder,
)
from .gauss import g_pm
from .laurent import LaurentPoly, RationalFunction, laurent_gcd, terms_divexact, terms_mul
from .numtheory import is_prime, mod_inverse
from .record import record
from .skein import SkeinElement
from .wrt import LensSpace, f_poly


@record
class LaurentMatrix:
    """Entries indexed by congruence class k (rows) and color c (columns)."""

    entries: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self):
        for row in self.entries:
            if len(row) != len(self.entries[0]):
                raise ValueError(f"matrix rows have lengths {len(self.entries[0])} and {len(row)}")
            for entry in row:
                if not isinstance(entry, LaurentPoly):
                    raise ValueError(f"matrix entry {entry!r} is not a LaurentPoly")
                if entry and entry.var != "z":
                    raise ValueError(f"matrix entry {entry!r} is in {entry.var}, not z")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


@record
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
        """True iff the two vectors are proportional (equal as lines); a zero
        vector lies on no line with a nonzero one."""
        comps = tuple(other)
        if len(comps) != len(self.components) or self.is_zero() != all(not c for c in comps):
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


def _bareiss_echelon(rows: list[list[dict]]):
    """In-place fraction-free row echelon of rows of term dicts (exponent ->
    coefficient, all int or all CyclotomicNumber); returns the (row, col)
    pivots and whether the row swaps made an odd permutation.

    No row is rescaled: each pivot is the minor of the rows and pivot
    columns chosen so far, so on a square matrix with a full set of pivots
    the last pivot is the determinant up to the swap sign.  Each step
    divides exactly by the previous pivot: every quotient is a minor, so
    an int coefficient divides without remainder (one that does not raises
    ArithmeticError), and a CyclotomicNumber divisor is inverted once.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[tuple[int, int]] = []
    odd = False
    prev = None
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            odd = not odd
        pivot_entry = rows[r][col]
        for i in range(r + 1, nrows):
            row_i = rows[i]
            minus_factor = {e: -c for e, c in row_i[col].items()}
            for j in range(col + 1, ncols):
                num = terms_mul(pivot_entry, row_i[j], terms_mul(minus_factor, rows[r][j]))
                row_i[j] = num if prev is None else terms_divexact(num, prev)
            row_i[col] = {}
        pivots.append((r, col))
        prev = pivot_entry
        r += 1
        if r == nrows:
            break
    return pivots, odd


def _back_substitute(rows, pivots, x: list[dict]) -> list[dict]:
    """Fill the pivot entries of x, term dicts like the echelon rows, in place
    and last pivot first, so that every echelon row annihilates x:
    x[col] = -(sum_(j > col) a_rj x_j) / a_r,col.

    x arrives with the last pivot D at one free column and 0 at the others,
    which makes every quotient exact by Cramer's rule, under the division
    rule of the elimination.
    """
    for row_idx, col in reversed(pivots):
        row = rows[row_idx]
        total = _row_times(row[col + 1:], x[col + 1:])
        x[col] = terms_divexact({e: -c for e, c in total.items()}, row[col])
    return x


def _row_times(row, x) -> dict:
    """sum_c row[c] x[c] on term dicts, exactly.

    An int row times an int vector adds plain ints.  Otherwise the products
    are grouped by exponent and each group is one
    cyclotomic.sum_of_products: added unreduced, reduced once.
    """
    pairs = [(a, v) for a, v in zip(row, x) if a and v]
    if not pairs:
        return {}
    a, v = pairs[0]
    if isinstance(next(iter(a.values())), int) and isinstance(next(iter(v.values())), int):
        total: dict = {}
        for a, v in pairs:
            terms_mul(a, v, total)
        return total
    products: dict = {}
    for a, v in pairs:
        for e1, c1 in a.items():
            for e2, c2 in v.items():
                e = e1 + e2
                if e in products:
                    products[e].append((c1, c2))
                else:
                    products[e] = [(c1, c2)]
    total = {}
    for e, group in products.items():
        value = sum_of_products(group)
        if value:
            total[e] = value
    return total


# --- certified modular pivots ----------------------------------------------------
#
# The entries of the f-matrix lie in Z[xi_n][z, 1/z] with n = p.  For a prime
# l = 1 (mod n) and omega of exact order n in F_l, xi_n -> omega, z -> t is a
# ring map into F_l, so the pivot rows of the image are exactly independent: a
# nonzero r x r image minor proves rank >= r.  Exact elimination then runs on
# those rows only, and every answer built from them is checked exactly on all
# rows.  A row that an answer fails is independent of the selected rows, so
# it joins them, at most rank - (number of image pivots) times.


@functools.lru_cache(maxsize=None)
def _modulus(n: int) -> tuple[int, int, int]:
    """(l, omega, t): the first prime l = 1 (mod n) above 2^62, an omega of
    exact order n in F_l, and a fixed nonzero evaluation point t."""
    m = 2**62 // n + 1
    while not is_prime(m * n + 1):
        m += 1
    ell = m * n + 1
    g = 2
    # omega = g^m has order dividing n, exactly n when no omega^(n/f), f | n, f > 1, is 1
    while any(pow(g, m * (n // f), ell) == 1 for f in range(2, n + 1) if n % f == 0):
        g += 1
    omega = pow(g, m, ell)
    t = 0x9E3779B97F4A7C15 % ell
    return ell, omega, t


def _image_pivot_rows(rows, n: int) -> list[int]:
    """Indices of the pivot rows of the image in F_l of rows of term dicts
    whose coefficient orders divide n.

    Each row is mapped after multiplying it by the lcm of its coefficient
    denominators: an integer multiple of a row keeps its pivot status, and
    its image needs no denominator to be invertible mod l.  The images of
    xi_order (omega^(n/order)) and of z^e (t^e) are tabled for this call.
    """
    ell, omega, t = _modulus(n)
    roots: dict[int, int] = {}  # order -> omega^(n/order)
    powers: dict[int, int] = {}  # e -> t^e

    def image(row) -> list[int]:
        scale = math.lcm(*(c.denominator for entry in row for c in entry.values()))
        values = []
        for entry in row:
            total = 0
            for e, c in entry.items():
                if not isinstance(c, int):
                    root = roots.get(c.order) or roots.setdefault(c.order, pow(omega, n // c.order, ell))
                    c = (c * scale if scale != 1 else c).image_mod(ell, root)
                total += c * (powers.get(e) or powers.setdefault(e, pow(t, e, ell)))
            values.append(total % ell)
        return values

    remaining = {k: image(row) for k, row in enumerate(rows)}
    chosen = []
    for col in range(len(rows[0]) if rows else 0):
        piv = next((k for k in remaining if remaining[k][col]), None)
        if piv is None:
            continue
        pivot_row = remaining.pop(piv)
        chosen.append(piv)
        inv = pow(pivot_row[col], -1, ell)
        for k, row in remaining.items():
            f = row[col] * inv % ell
            if f:
                remaining[k] = [(a - f * b) % ell for a, b in zip(row, pivot_row)]
    return sorted(chosen)


def _refuting_row(rows, vec: RationalFunctionVector) -> int | None:
    """The first row k with M[k] v != 0, exactly; None when M v = 0."""
    x = [v.terms for v in vec.components]
    return next((k for k, row in enumerate(rows) if _row_times(row, x)), None)


def _refined(rows, selection) -> list[RationalFunctionVector]:
    """The normalized kernel basis of the selected rows, proven on every row.

    Each free column f gets the vector with v_f = D, the last pivot, and 0
    at the other free columns; its support is the pivots < f and f.  A row
    that a vector fails exactly is not in the selection's span: it joins
    the selection, which is eliminated again.
    """
    ncols = len(rows[0]) if rows else 0
    while True:
        selected = [list(rows[k]) for k in selection]
        pivots, _ = _bareiss_echelon(selected)
        det = selected[pivots[-1][0]][pivots[-1][1]] if pivots else {0: 1}
        pivot_cols = {c for _, c in pivots}
        basis = []
        for f in range(ncols):
            if f in pivot_cols:
                continue
            x = [{}] * ncols
            x[f] = det
            vec = _normalize_kernel_vector([LaurentPoly("z", t) for t in _back_substitute(selected, pivots, x)])
            refuting = _refuting_row(rows, vec)
            if refuting is not None:
                selection = sorted([*selection, refuting])
                break
            basis.append(vec)
        else:
            return basis


def _descended(rows, n: int) -> list[list[dict]]:
    """The rational rows: the power-basis coordinates in Q(xi_n), Laurent
    polynomials over Q, of row d mod p for each divisor d of p = len(rows),
    each coordinate row times the lcm of its denominators, as int term
    dicts.  For the f-matrix, xi -> xi^u maps row k to row k/u, so these
    rows annihilate the same rational vectors as the whole matrix."""
    p = len(rows)
    rational = []
    for k in (d % p for d in range(1, p + 1) if p % d == 0):
        coords = [[{} for _ in rows[k]] for _ in range(n)]
        for col, entry in enumerate(rows[k]):
            for e, c in entry.items():
                for j, v in enumerate(c.lift(n).coeffs):
                    if v:
                        coords[j][col][e] = v
        for row in coords:
            if any(row):
                scale = math.lcm(*(v.denominator for t in row for v in t.values()))
                rational.append([{e: int(v * scale) for e, v in t.items()} for t in row])
    return rational


def _certified(matrix: LaurentMatrix) -> list[RationalFunctionVector]:
    """The normalized kernel basis, proven: the rank is ncols - len(basis).

    The matrix becomes rows of term dicts once, and n is the lcm of its
    coefficient orders.  The image pivot rows bound the rank from below;
    when they number ncols less the zero columns, the unit vectors e_c of
    the zero columns are the basis.  Otherwise the descended rows are
    refined over Q(z): their basis is the answer when every vector
    annihilates all rows of the matrix exactly and the image pivot rows
    meet the bound ncols - len(basis).  When the bounds disagree (a
    right-hand side that is not Galois-compatible, or a weak image) the
    matrix's own image pivot rows are refined over Q(xi_p)(z).
    """
    rows = [[entry.terms for entry in row] for row in matrix.entries]
    ncols = matrix.ncols
    n = math.lcm(*(c.order for row in rows for entry in row for c in entry.values()))
    zero = [c for c in range(ncols) if not any(row[c] for row in rows)]
    selection = _image_pivot_rows(rows, n)
    if len(selection) == ncols - len(zero):
        one, nil = LaurentPoly.one("z"), LaurentPoly("z")
        return [RationalFunctionVector(tuple(one if j == c else nil for j in range(ncols))) for c in zero]
    rational = _descended(rows, n)
    basis = _refined(rational, _image_pivot_rows(rational, n))
    if len(basis) == ncols - len(selection) and all(_refuting_row(rows, vec) is None for vec in basis):
        return basis
    return _refined(rows, selection)


def rank(matrix: LaurentMatrix) -> int:
    """Exact rank over the rational-function field."""
    return matrix.ncols - len(_certified(matrix))


def kernel(space: LensSpace) -> list[RationalFunctionVector]:
    """Basis of { v : sum_c M[k][c] v_c = 0 for all k }, normalized."""
    return _certified(build_f_matrix(space))


def _normalize_kernel_vector(polys: list[LaurentPoly]) -> RationalFunctionVector:
    nonzero = [w for w in polys if w]
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


@record
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
        tuple(g_pm(p, q, c, k, 1) for c in gammas)
        for k in deltas
    )
    rows = [[{0: e} if e else {} for e in row] for row in entries]
    pivots, odd = _bareiss_echelon(rows)
    det = rows[-1][-1][0] if len(pivots) == len(rows) else CyclotomicNumber.zero(p)
    return SubmatrixCertificate(
        row_selection=tuple(deltas),
        col_selection=tuple(gammas),
        entries=entries,
        determinant=-det if odd else det,
    )


# --- solving the link system ----------------------------------------------------


@record
class RecoveredSkein:
    """Solution of the link system: coordinates C_c(-z^p), plus the A-form
    when every coordinate is an integer-exponent-in-p Laurent polynomial
    with rational coefficients."""

    z_components: tuple[RationalFunction, ...]
    a_form: SkeinElement | None


def recover_skein(space: LensSpace, fpolys) -> RecoveredSkein:
    """Solve sum_c M[k][c] x_c = fpolys[k] for all k (signed-body convention).

    fpolys must hold one Laurent polynomial per k = 0..p-1, in the same
    normalization as f_link(...).signed_body.  The proven kernel of
    [M | -b] decides everything: its vectors with last component 0 are the
    kernel of M, so any of them raise RankDeficient; an empty kernel raises
    Inconsistent (b is outside the column span); otherwise its one vector
    (v, d) gives x = v / d.
    """
    p = space.p
    fpolys = list(fpolys)
    if len(fpolys) != p:
        raise ValueError(f"need one polynomial per k = 0..{p - 1}, got {len(fpolys)}")
    matrix = build_f_matrix(space)
    ncols = matrix.ncols
    augmented = LaurentMatrix(tuple(row + (-fp,) for row, fp in zip(matrix.entries, fpolys)))
    basis = _certified(augmented)
    nullity = sum(1 for vec in basis if not vec.components[-1])
    if nullity:
        raise RankDeficient(
            f"f-matrix of L({space.p},{space.q}) has rank {ncols - nullity} < {ncols}"
        )
    if not basis:
        raise Inconsistent("right-hand side is not in the column span")
    *num, den = basis[0]
    x = [RationalFunction(v, den) for v in num]
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
    nonzero = [c if isinstance(c, RationalFunction) else RationalFunction(c) for c in vector if c]
    if not nonzero:
        return True
    ref = nonzero[-1]
    for comp in nonzero:
        ratio = comp / ref
        for poly in (ratio.num, ratio.den):
            if any(e % p != 0 or not c.is_rational() for e, c in poly.items()):
                return False
    return True


# --- numeric interpolation of an f-polynomial from samples -------------------------


@record
class NumericPoly:
    """A Laurent polynomial with complex coefficients, as interpolate_f recovers it."""

    var: str
    terms: dict[int, complex]

    def coeff(self, exponent: int) -> complex:
        return self.terms.get(exponent, 0)

    def is_zero(self) -> bool:
        return not self.terms


_INTERPOLATION_TOL = 1e-6  # relative bound on the coefficient drift and the residual


def interpolate_f(space: LensSpace, samples, k: int, precision: int = 53):
    """Recover the Laurent polynomial behind sqrt(r) w_r samples on one
    congruence class.

    samples: iterable of (r, complex value of sqrt(r) * w_r); all r must be
    congruent to k mod p and the values may be ordinary complex numbers or
    mpmath.mpc at any precision.  The exponent window is the support bound
    of the f-polynomials: with e = 12 p s(q,p) and m = [p/2], the body of
    color c contributes e + q(c^2+2c) +- 2(c+1), so the window is
    [lo, hi] = [e - 2, e + q m(m+2) + 2(m+1)], width = hi - lo + 1.

    The `width` smallest levels give the square system, a Vandermonde
    system shifted by z^lo.  Each of its samples is divided by z^lo, and
    the plain Vandermonde system on those nodes is solved in Newton form
    (Bjorck-Pereyra: divided differences, then the Newton form expanded
    to monomial coefficients), in O(width^2) operations at
    precision + 16 width bits, since the nodes cluster near 1.  The
    coefficients are then checked twice: solved again with every sample
    moved by one rounding, they must not drift, and z^lo times their
    Horner value must match every sample, the leftover levels included.
    Returns (NumericPoly, residual); raises ValueError on a precision
    below 53 bits or a sample that is not finite, and UnderDetermined or
    BadConditioning.

    Precondition: the samples come from a polynomial supported in the
    window.  Every level puts z within pi/(2p) of 1, and on that arc the
    residual cannot tell a shifted support apart: samples of z^40 f at
    L(5,2) (32 levels, 300 bits) fit inside the window with residual
    1.3e-46 and wrong coefficients.
    """
    check_precision(precision)
    import mpmath
    p = space.p
    pts = sorted(((operator.index(r), v) for r, v in samples), key=lambda rv: rv[0])
    for r, v in pts:
        if r % p != k % p:
            raise ValueError(f"sample at r={r} is not in the class {k} mod {p}")
        if not mpmath.isfinite(v):
            raise ValueError(f"sample at r={r} is not finite")
        if r < 2:
            raise ValueError(f"level parameter r must be >= 2, got {r}")
    if len({r for r, _ in pts}) != len(pts):
        raise ValueError("duplicate sample levels")
    e_mid = int(12 * p * space.dedekind)
    m = p // 2
    lo, hi = e_mid - 2, e_mid + space.q * m * (m + 2) + 2 * (m + 1)
    width = hi - lo + 1
    if len(pts) < width:
        raise UnderDetermined(f"{len(pts)} samples cannot determine {width} coefficients")
    work = precision + 16 * width
    with mpmath.workprec(work):
        values = [mpmath.mpc(v) for _, v in pts]
        nodes = [unit_root(1, 4 * p * r, work) for r, _ in pts]
        shifts = [z ** lo for z in nodes]

        def solve(rhs) -> list:
            # sum_j a_j z_i^j = rhs_i / z_i^lo on the square levels: divided
            # differences, then the Newton form expanded to monomials
            a = [v / shift for v, shift in zip(rhs, shifts)]
            for step in range(1, width):
                for i in range(width - 1, step - 1, -1):
                    a[i] = (a[i] - a[i - 1]) / (nodes[i] - nodes[i - step])
            for step in range(width - 2, -1, -1):
                for i in range(step, width - 1):
                    a[i] -= nodes[step] * a[i + 1]
            return a

        coeffs = solve(values[:width])
        scale = max(mpmath.mpf(1), max(abs(v) for v in values))
        # a fit can be exact while the coefficients are not: re-solve with each
        # sample moved by one rounding, 2^-precision of the sample scale, in
        # alternating directions (an exact zero has no rounding and stays), and
        # see how far the coefficients follow
        eps = mpmath.ldexp(scale, -precision)
        moved = solve([v + (-1) ** i * eps if v else v for i, v in enumerate(values[:width])])
        drift = max(abs(b - a) for a, b in zip(coeffs, moved))
        if drift > _INTERPOLATION_TOL * scale:
            raise BadConditioning(
                f"coefficients move by {mpmath.nstr(drift, 3)} under a 2^-{precision} change of the samples"
            )
        residual = mpmath.mpf(0)
        for v, z, shift in zip(values, nodes, shifts):
            fit = mpmath.mpc(0)
            for a in reversed(coeffs):
                fit = fit * z + a
            residual = max(residual, abs(shift * fit - v))
        if residual > _INTERPOLATION_TOL * scale:
            raise BadConditioning(f"residual {mpmath.nstr(residual, 3)} exceeds tolerance")
    poly = NumericPoly("z", {lo + j: complex(a) for j, a in enumerate(coeffs) if a})
    return poly, float(residual)
