"""Exact linear algebra over Laurent polynomials and rational functions.

Builds the f-matrix, one read-only object per space that keeps its
image (_imaged, which rank reads) and the first kernel basis proven on
it (_proof, which kernel reads), and recovers skein coefficients from
link polynomials.  One certified flow (_certified) runs on rows of term
dicts (exponent -> coefficient, one dict per column):

- the rows: build_f_matrix's lazy _FMatrix (entries built when read) carries
  the Galois action in its type, so the proof reads its descended rows
  (_descended), int rows over Z[z, 1/z] read straight from the Gauss table
  for its tau(p) rows d | p, M's kept for the last space asked (_rows); any
  other LaurentMatrix gives its own rows;
- one image test mod l (modular._image_pivot_rows), its pivot rows independent;
- one refinement loop (_refined): fraction-free elimination on the selected
  rows, then the exact proof on every row, which a refuting row joins.

A solution of M x = b is the proven kernel vector (v, d) of M's kept
rows with b's coordinates as one more column when b has M's action
(_has_action), else of the plain [M | -b].  Kernel vectors are proven,
then normalized.  The module also produces the nonsingular-submatrix
certificates for p prime or twice an odd prime, their determinants
computed in modular with no arithmetic in Q(xi_p), and decides whether a
rational-function skein class is a unit multiple of an ordinary one
(integer coefficients in A = -z^p).
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .codec import coeff_terms_to_json
from .cyclotomic import CyclotomicNumber, check_precision, unit_root
from .errors import (
    BadConditioning,
    Inconsistent,
    RankDeficient,
    UnderDetermined,
    UnsupportedOrder,
)
from .gauss import g_pm
from .laurent import LaurentPoly, RationalFunction, laurent_gcd, terms_divexact, terms_gcd, terms_mul
from .modular import _gauss_determinant, _image_pivot_rows
from .numtheory import count_squares_mod, is_prime, mod_inverse
from .record import record
from .skein import SkeinElement
from .wrt import LensSpace, _gauss_terms, _terms


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


class _FMatrix(LaurentMatrix):
    """M, the f-matrix of a space: its type asserts that sigma_u, the map
    xi_p -> xi_p^u fixing z, sends row k to row k/u for every unit u mod p,
    sigma_u(M_k) = M_(k/u).

    Proof.  Entry (k, c) is +-(z^(e+2(c+1)) G(qk, b_+) - z^(e-2(c+1))
    G(qk, b_-)), b_+- = qc + q +- 1, with e and the sign set by c alone
    (wrt._terms), and G(a, b) = sum_(n mod p) xi_p^(a n^2 + b n).  Term by
    term sigma_u G(a, b) = G(ua, ub), and n -> vn permutes Z/p for a unit
    v, so G(a, b) = G(av^2, bv).  With v = u^-1, sigma_u G(qk, b) =
    G(qk/u, b): each sum of entry (k, c) goes to the same sum of entry
    (k/u, c), and the monomials are fixed.

    It keeps its space; the first read of .entries, from any thread,
    builds them (dict.setdefault keeps one tuple), for == and repr, and a
    pickle carries the space.  _proof keeps the first kernel basis proven
    on it the same way, under "_basis".
    """

    __slots__ = ("_space", "ncols")  # ncols: a slot in place of the entries' count

    def __init__(self, space: LensSpace):
        object.__setattr__(self, "_space", space)
        object.__setattr__(self, "ncols", space.p // 2 + 1)
        self.__post_init__()

    def __post_init__(self):
        """Entries built by the package are not validated."""

    def __getattr__(self, name):
        if name != "entries":
            raise AttributeError(name)
        # entry (k, c) is (-1)^(c+1) times f(p,q,c,k)'s body
        entries = tuple(tuple(LaurentPoly._make("z", _terms(self._space, c, k, -1 if c % 2 == 0 else 1))
                              for c in range(self.ncols)) for k in range(self._space.p))
        return self.__dict__.setdefault("entries", entries)

    def __eq__(self, other):
        return self.entries == other.entries if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"_FMatrix(entries={self.entries!r})"

    def __reduce__(self):
        return _FMatrix, (self._space,)


_F_MATRICES: dict[tuple[int, int], _FMatrix] = {}


def build_f_matrix(space: LensSpace) -> LaurentMatrix:
    """The p x ([p/2]+1) matrix of signed f-polynomial bodies, a lazy _FMatrix.

    Entry (k, c) is (-1)^(c+1) body(p,q,c,k), the full polynomial over the
    scalar i/sqrt(2p), so rank and kernel are the f-matrix's.  The entries
    are built on first read; the proof reads only the tau(p) rows d | p.
    Every call for (p, q) returns the same object, from any thread.
    """
    return _F_MATRICES.get((space.p, space.q)) or _F_MATRICES.setdefault((space.p, space.q), _FMatrix(space))


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
    """sum_c row[c] x[c] on term dicts, exactly: one terms_mul per nonzero pair."""
    total: dict = {}
    for a, v in zip(row, x):
        if a and v:
            terms_mul(a, v, total)
    return total


def _refuting_row(rows, x: list[dict]) -> int | None:
    """The first row k with M[k] x != 0, exactly, for x a vector of term
    dicts; None when M x = 0."""
    return next((k for k, row in enumerate(rows) if _row_times(row, x)), None)


def _refined(rows, selection) -> list[RationalFunctionVector]:
    """The normalized kernel basis of the selected rows, proven on every row.

    Each free column f gets the vector with v_f = D, the last pivot, and 0
    at the other free columns; its support is the pivots < f and f.  A row
    that a vector fails exactly is not in the selection's span: it joins
    the selection, which is eliminated again.  A free column zero in every
    row gets e_f (_unit), proven by that scan, with no back-substitution.
    The proof runs on the raw back-substituted vector (scaling v moves
    neither M v = 0 nor the first refuting row), so only a vector that
    passes pays the normalizing gcd: over Z for an int vector
    (_int_normalized), else by Euclid.
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
            if not any(row[f] for row in rows):
                basis.append(_unit(f, ncols))
                continue
            x = [{}] * ncols
            x[f] = det
            x = _back_substitute(selected, pivots, x)
            refuting = _refuting_row(rows, x)
            if refuting is not None:
                selection = sorted([*selection, refuting])
                break
            vec = _int_normalized(x)
            basis.append(vec if vec is not None else _normalize_kernel_vector([LaurentPoly("z", t) for t in x]))
        else:
            return basis


def _descended(space: LensSpace) -> dict[tuple[int, int], list[dict]]:
    """M's descended rows, keyed (d, j): the power-basis coordinate j in
    Z[xi_p] of row d, for each divisor d of p, in the order of d, then j,
    as int term dicts read from the Gauss-table numerators
    (wrt._gauss_terms).

    They annihilate exactly the rational vectors that all p rows do.  Each
    k is d u, d = gcd(k, p) and u a unit mod p, so row k is sigma_(1/u) of
    row d, and sigma fixes a vector v over Q(z): row k annihilates v iff
    row d does.  Row d times v is sum_j s_j xi_p^j, s_j its j-th coordinate
    row times v, and the xi_p^j, j < phi(p), stay independent over Q(z)
    (Phi_p is irreducible there): row d annihilates v iff every s_j is 0.
    """
    ncols, descended = space.p // 2 + 1, {}
    for d in _divisor_rows(space.p):
        coords: dict[int, list[dict]] = {}
        for c in range(ncols):
            for sign, (e, g) in zip((1, -1), _gauss_terms(space, c, d)):
                for j, v in enumerate(g._num):
                    if v:
                        (coords.get(j) or coords.setdefault(j, [{} for _ in range(ncols)]))[c][e] = (-1) ** (c + 1) * sign * v
        descended.update(((d, j), coords[j]) for j in sorted(coords))
    return descended


def _divisor_rows(p: int) -> list[int]:
    """Row d mod p for each divisor d of p: one row per orbit of the units."""
    return [d % p for d in range(1, p + 1) if p % d == 0]


def _has_action(b, p: int) -> bool:
    """Whether b, one LaurentPoly per row k mod p, has the action of
    _FMatrix: every coefficient order divides p, and sigma_u(b_d) = b_(d/u)
    for each divisor row d and each unit u mod p.

    That gives sigma_v(b_k) = b_(k/v) for every k and unit v, stabilisers
    included: k = d/w with d = gcd(k, p) and w a unit, so b_k = sigma_w(b_d)
    and sigma_v(b_k) = sigma_(vw)(b_d) = b_(d/(vw)) = b_(k/v).
    """
    if any(p % c.order for poly in b for c in poly.terms.values()):
        return False
    return all({e: c.galois(u) for e, c in b[d].terms.items()} == b[d * pow(u, -1, p) % p].terms
               for d in _divisor_rows(p) for u in range(1, p) if math.gcd(u, p) == 1)


def _weight(row) -> tuple[int, int]:
    """(number of terms, largest coefficient bit length) of an int row."""
    return sum(map(len, row)), max(abs(v).bit_length() for entry in row for v in entry.values())


@functools.lru_cache(maxsize=1)
def _rows(space: LensSpace) -> tuple[tuple[tuple[int, int], ...], tuple[list[dict], ...]]:
    """(keys, rows): M's descended rows (_descended) and their keys (d, j),
    sparsest first (fewest terms, then shortest largest coefficient) so
    that the image picks the cheapest.  Keyed by the space, a LensSpace
    hashing as (p, q), and one space's rows are kept: the kernel or
    recover after a rank refines the rows that it imaged, and a call for
    another space drops them.  No caller mutates them."""
    return tuple(zip(*sorted(_descended(space).items(), key=lambda item: _weight(item[1]))))


def _imaged(matrix: _FMatrix) -> tuple[list[int], list[int]]:
    """(selection, zero) of M: the pivot rows of the image mod l of its
    rows (_rows), and their zero columns.  Both are kept on M
    (dict.setdefault, as _proof keeps the basis), so each f-matrix is
    imaged once; the image stops at min(ncols - #zero,
    count_squares_mod(p)) pivots, the most it can have (rank).
    """
    kept = vars(matrix).get("_image")
    if kept is None:
        rows, ncols = _rows(matrix._space)[1], matrix.ncols
        zero = [c for c in range(ncols) if not any(row[c] for row in rows)]
        stop = min(ncols - len(zero), count_squares_mod(matrix._space.p))
        kept = vars(matrix).setdefault("_image", (_image_pivot_rows(rows, 1, stop if stop < ncols else None), zero))
    return kept


def _certified(matrix: LaurentMatrix) -> list[RationalFunctionVector]:
    """The normalized kernel basis, proven: the rank is ncols - len(basis).

    M, an _FMatrix, gives its kept image (_imaged), reading its descended
    rows (_rows) only to refine.  They annihilate the same rational
    vectors as M (_descended), and sigma_u maps its kernel onto itself, so
    the kernel has a basis over Q(z) (Speiser's lemma): a basis of their
    kernel over Q(z) is one of M's.  A column is zero in row k iff in row
    k/u, so they also have its zero columns, and they are int rows: n = 1,
    one image prime for all orders.  Any other matrix gives its rows over
    Q(xi_n)(z), n the lcm of the coefficient orders, each times the lcm of
    its denominators.

    On those rows the image pivot rows are independent; when they number
    ncols less the zero columns, the e_c of the zero columns are the
    basis.  Otherwise _refined's basis annihilates every row exactly and
    has one vector per free column of its echelon form, so it spans the
    kernel.  Row order never moves the proven, normalized basis.
    """
    ncols, rows = matrix.ncols, None
    if isinstance(matrix, _FMatrix):
        selection, zero = _imaged(matrix)
    else:
        rows, n = [], 1
        for row in matrix.entries:
            coeffs = [c for entry in row for c in entry.terms.values()]
            n = math.lcm(n, *(c.order for c in coeffs))
            scale = math.lcm(*(c.denominator for c in coeffs))
            rows.append([{e: c * scale for e, c in entry.terms.items()} if scale != 1 else entry.terms
                         for entry in row])
        zero = [c for c in range(ncols) if not any(row[c] for row in rows)]
        selection = _image_pivot_rows(rows, n)
    if len(selection) == ncols - len(zero):
        return [_unit(c, ncols) for c in zero]
    return _refined(rows if rows is not None else _rows(matrix._space)[1], selection)


def _unit(c: int, ncols: int) -> RationalFunctionVector:
    """e_c, the normalized kernel vector of a column that is zero in every row."""
    return RationalFunctionVector(tuple(LaurentPoly("z", {0: 1} if j == c else {}) for j in range(ncols)))


def _proof(matrix: LaurentMatrix) -> tuple[RationalFunctionVector, ...]:
    """The proven, normalized kernel basis (_certified), which kernel
    reads, and rank when M's image falls short of its stop.  An _FMatrix
    keeps the first one proven on it, as it keeps its entries: racing
    proofs give the same basis, and dict.setdefault keeps one tuple.  Any
    other matrix is proven on every call."""
    if not isinstance(matrix, _FMatrix):
        return tuple(_certified(matrix))
    basis = vars(matrix).get("_basis")
    return basis if basis is not None else vars(matrix).setdefault("_basis", tuple(_certified(matrix)))


def rank(matrix: LaurentMatrix) -> int:
    """Exact rank over the rational-function field.

    Lemma: rank M <= count_squares_mod(p) for the f-matrix M of L(p, q).
    Proof.  By wrt._terms, entry (k, c) is s_c z^(e0(c) - 2(c+1))
    (G(qk, b_c + 1) z^(4(c+1)) - G(qk, b_c - 1)), b_c = q(c+1), where
    s_c = (-1)^(c+1) and e0(c) = 12 p s(q, p) + q(c^2 + 2c) depend on c
    alone and G(a, b) = sum_(n mod p) xi_p^(a n^2 + b n).  So M = P Gamma E D:
    P picks row qk of Gamma[a, b] = G(a, b) for row k; column c of E, p x
    ([p/2] + 1), is z^(4(c+1)) at row b_c + 1 less 1 at row b_c - 1; D is
    the diagonal of the s_c z^(e0(c) - 2(c+1)).  Sorting the terms of G by
    s = n^2 mod p gives Gamma = W Q F with W[a, s] = xi_p^(as), Q[s, n] =
    [n^2 = s mod p] and F[n, b] = xi_p^(nb): W and F are Vandermonde on the
    p distinct p-th roots of unity, so invertible, and the nonzero rows of
    Q are distinct unit-vector sums with disjoint supports, one per square:
    rank M <= rank Gamma = rank Q = count_squares_mod(p).

    A nonzero r x r minor of an image mod l of M's descended rows (their
    rank is M's, _certified) proves rank M >= r, and the zero columns rank
    M <= ncols - #zero.  So when M's image (_imaged) reaches its stop,
    min(count_squares_mod(p), ncols - #zero), full rank included, that is
    the rank, with no elimination over Z[z]; the rows stay in _rows for a
    kernel or a recover.  Otherwise, and on any other matrix, the rank is
    ncols less the nullity of the proof (_proof).
    """
    if isinstance(matrix, _FMatrix):
        selection, zero = _imaged(matrix)
        if len(selection) == min(count_squares_mod(matrix._space.p), matrix.ncols - len(zero)):
            return len(selection)
    return matrix.ncols - len(_proof(matrix))


def kernel(space: LensSpace) -> list[RationalFunctionVector]:
    """Basis of { v : sum_c M[k][c] v_c = 0 for all k }, normalized and proven (_proof)."""
    return list(_proof(build_f_matrix(space)))


def _int_normalized(x: list[dict]) -> RationalFunctionVector | None:
    """The normalized vector on the line of x, int term dicts not all
    empty, in Z[z, 1/z]; None for a coefficient that is not an int or a
    gcd that terms_gcd does not prove.  Component i is z^v_i P_i(z^s), s
    the gcd of the exponent differences within components, and Euclid in
    Q[w] commutes with w = z^s: the quotients P_i / gcd, shifted by
    -v_last and over the last one's constant term, are the answer.
    """
    if not all(isinstance(c, int) for t in x for c in t.values()):
        return None
    lows = [min(t) if t else 0 for t in x]
    s = math.gcd(*(e - v for t, v in zip(x, lows) for e in t)) or 1
    found = terms_gcd([{(e - v) // s: c for e, c in t.items()} for t, v in zip(x, lows) if t])
    if found is None:
        return None
    quotients, unit = iter(found[1]), found[1][-1][0]
    shift = lows[max(i for i, t in enumerate(x) if t)]
    return RationalFunctionVector(tuple(
        LaurentPoly("z", {v - shift + s * k: Fraction(c, unit) for k, c in next(quotients).items()} if t else {})
        for t, v in zip(x, lows)
    ))


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
    entry matrix E = [G_+(p,q,col[c],row[k])], and its determinant.

    The determinant takes no arithmetic in Q(xi_p): modular._gauss_determinant
    computes it from conjugate images mod primes l and CRT, under a
    Hadamard bound that it proves from the Gauss keys alone.
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
    entries = tuple(tuple(g_pm(p, q, c, k, 1) for c in gammas) for k in deltas)
    det = _gauss_determinant(p, [q * k % p for k in deltas], [(q * c + q + 1) % p for c in gammas])
    return SubmatrixCertificate(
        row_selection=tuple(deltas),
        col_selection=tuple(gammas),
        entries=entries,
        determinant=det,
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

    fpolys must hold one Laurent polynomial in z per k = 0..p-1, in the
    normalization of f_link(...).signed_body, checked here once.  rank(M)
    < ncols raises RankDeficient, whatever b = fpolys is: at a deficient
    order the squares bound and M's image decide it with no elimination
    (rank).  Then M has full column rank, so ker [M | -L b], L != 0, is
    at most a line, and no vector on it has last component 0.  No vector
    raises Inconsistent; else the one vector (v, d) gives x = v / (L d).
    When b has M's action (_has_action), so has [M | -b], and its
    descended rows (_descended) are M's kept rows (_rows) with column
    -L b_(d,j), L the lcm of the denominators of b's divisor rows; a
    coordinate where M's rows have none is 0 = b_(d,j) != 0.  _refined
    starts from M's kept selection and proves on every row.  Otherwise
    the plain [M | -b], L = 1, is proven over Q(xi_p)(z) (_certified).
    """
    p = space.p
    fpolys = list(fpolys)
    if len(fpolys) != p:
        raise ValueError(f"need one polynomial per k = 0..{p - 1}, got {len(fpolys)}")
    for k, fp in enumerate(fpolys):
        if not isinstance(fp, LaurentPoly):
            raise ValueError(f"right-hand side entry {k} is {fp!r}, not a LaurentPoly")
        if fp and fp.var != "z":
            raise ValueError(f"right-hand side entry {k} is in {fp.var}, not z")
    matrix = build_f_matrix(space)
    found = rank(matrix)
    if found < matrix.ncols:
        raise RankDeficient(f"f-matrix of L({space.p},{space.q}) has rank {found} < {matrix.ncols}")
    if isinstance(matrix, _FMatrix) and _has_action(fpolys, p):
        divisors, column = _divisor_rows(p), {}
        scale = math.lcm(*(x.denominator for d in divisors for x in fpolys[d].terms.values()))
        for d in divisors:
            for e, x in fpolys[d].terms.items():
                for j, v in enumerate((x * -scale).lift(p)._num):
                    if v:
                        column.setdefault((d, j), {})[e] = v
        keys, rows = _rows(space)
        rows = [row + [column.pop(key, {})] for key, row in zip(keys, rows)]
        basis = [] if column else _refined(rows, _imaged(matrix)[0])
    else:
        scale, basis = 1, _certified(LaurentMatrix(tuple(row + (-fp,) for row, fp in zip(matrix.entries, fpolys))))
    if not basis:
        raise Inconsistent("right-hand side is not in the column span")
    *num, den = basis[0]
    x = [RationalFunction(v, den.scale(scale)) for v in num]
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
