"""Exact answers over Q(xi_n) from their images mod primes l = 1 (mod n).

For omega of exact order n in F_l and each unit u, xi_n -> omega^u maps
Z[xi_n] to F_l: the image of the conjugate sigma_u.  Both uses of the
images eliminate mod l through one routine, _echelon_mod:

- the image test of analysis: with z -> a fixed point t as well, the
  pivot rows of the image are exactly independent (a nonzero r x r image
  minor proves rank >= r); the f-matrix's descended rows are int rows,
  so n = 1 and one prime serves every order.  The image is made row by
  row and stops at a target: for an f-matrix the rank bound
  count_squares_mod(p) that analysis.rank proves, so a deficient rank
  is the bound and a minor that reaches it, with no elimination over
  Z[z];
- the certificate determinants: a Vandermonde solve on the determinants
  of the images gives the power-basis coordinates mod l, and CRT up to a
  bound proven from |G(a, b; p)|^2 <= 2p gcd(a, p) gives them over Z.
"""

from __future__ import annotations

import functools
import math

from .cyclotomic import CyclotomicNumber
from .numtheory import is_prime


@functools.lru_cache(maxsize=None)
def _modulus(n: int, index: int = 0) -> tuple[int, int, int]:
    """(l, omega, t): the index-th prime l = 1 (mod n) above 2^62 (index 0
    the first; each search continues from the prime before), an omega of
    exact order n in F_l, and a fixed nonzero evaluation point t."""
    m = (_modulus(n, index - 1)[0] - 1) // n + 1 if index else 2**62 // n + 1
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


def _image_pivot_rows(rows, n: int, stop: int | None = None) -> list[int]:
    """Indices of the pivot rows of the image in F_l, l from _modulus(n), of
    rows of term dicts whose coefficient orders divide n: integral rows, as
    analysis._certified clears them (image_mod inverts a denominator prime
    to l).  Int rows take n = 1: any prime works, and the one search is
    cached.  The images of xi_order (omega^(n/order)) and of z^e (t^e) are
    tabled for this call.  Each row is imaged when _echelon_mod reaches it,
    and the elimination ends at stop pivots when stop is given: the rows
    after that are never imaged.
    """
    ell, omega, t = _modulus(n)
    roots: dict[int, int] = {}  # order -> omega^(n/order)
    powers: dict[int, int] = {}  # e -> t^e

    def image(row) -> list[int]:
        values = []
        for entry in row:
            total = 0
            for e, c in entry.items():
                if not isinstance(c, int):
                    root = roots.get(c.order) or roots.setdefault(c.order, pow(omega, n // c.order, ell))
                    c = c.image_mod(ell, root)
                total += c * (powers.get(e) or powers.setdefault(e, pow(t, e, ell)))
            values.append(total % ell)
        return values

    images = map(image, rows)
    return sorted((_echelon_mod(images, ell) if stop is None else _echelon_mod(images, ell, stop))[0])


def _hadamard_square(p: int, row_a: list[int], width: int) -> int:
    """B^2 = prod_i width 2p gcd(a_i, p): B >= |sigma(det E)| at every
    embedding sigma, for E = [G(a_i, b_j)] with width columns.

    Let G(a, b; c) = sum_(n mod c) xi_c^(a n^2 + b n) and g = gcd(a, c).
    Summing n = x + (c/g) y over y mod g shows G(a, b; c) = 0 unless g | b,
    and then G(a, b; c) = g G(a/g, b/g; c/g).  For gcd(a', c') = 1, n = m + h
    and the sum over m give |G|^2 = c' sum_(h : c' | 2a'h) xi^(a'h^2 + b'h):
    c' for odd c' (h = 0), 0 or 2c' for even c' (h = 0, c'/2; the second
    term is +-1).  So |G(a, b; p)|^2 <= 2p gcd(a, p), also at every
    conjugate: sigma_u G(a, b) = G(ua, ub) and gcd(ua, p) = gcd(a, p).
    Hadamard's inequality bounds |det| by the product of the row norms.
    """
    return math.prod(width * 2 * p * math.gcd(a, p) for a in row_a)


def _gauss_determinant(p: int, row_a: list[int], col_b: list[int]) -> CyclotomicNumber:
    """det E, E = [G(a_i, b_j)], G(a, b) = sum_n xi_p^(a n^2 + b n), from its
    images mod primes l = 1 (mod p).

    For each prime l = 1 (mod p) above 2^62 in turn, one table of every
    G(a, b) at omega gives each sigma_u(E) mod l, and one _echelon_mod each
    gives sigma_u(det) mod l: the values of det = sum_(j < phi(p)) d_j xi^j
    at the phi(p) nodes omega^u, from which a Vandermonde solve gives the
    d_j mod l.  CRT runs until the product P of the primes exceeds 4B, B^2
    from _hadamard_square, and each d_j is its symmetric residue mod P.

    Bound.  For p prime, Tr(xi^k) is p - 1 if p | k and -1 otherwise, so
    Tr(x xi^-j) - Tr(x xi) = sum_i d_i (Tr(xi^(i-j)) - Tr(xi^(i+1))) = p d_j
    for x = det (i + 1 never reaches p), and each trace sums p - 1 terms of
    modulus <= B: |d_j| <= 2(p - 1)B/p < 2B.  For p = 2s, xi_2s =
    -xi_s^((s+1)/2) with (s+1)/2 a unit mod s, so the basis xi_2s^j,
    j < s - 1, is +-xi_s^i over every residue i mod s but one, i0; the same
    sums give Tr(x xi_s^-i) - Tr(x xi_s^-i0) = s e_i for the coordinates
    e_i = +-d_j in that basis, so again |d_j| < 2B, and P > 4B puts every
    d_j in (-P/2, P/2), where its residue names it.
    """
    units = [u for u in range(1, p) if math.gcd(u, p) == 1]
    coords, modulus, index = [0] * len(units), 1, 0
    bound2 = _hadamard_square(p, row_a, len(col_b))
    while modulus * modulus <= 16 * bound2:
        ell, omega, _ = _modulus(p, index)
        table = _sum_table(p, ell, omega)
        values = []
        for u in units:  # sigma_u G(a, b) = G(ua, ub)
            cols = [u * b % p for b in col_b]
            values.append(_echelon_mod([[table[u * a % p][x] for x in cols] for a in row_a], ell)[1])
        residues = _vandermonde_solve([pow(omega, u, ell) for u in units], values, ell)
        lift = pow(modulus, -1, ell)
        coords = [x + modulus * ((r - x) * lift % ell) for x, r in zip(coords, residues)]
        modulus *= ell
        index += 1
    half = modulus // 2
    return CyclotomicNumber(p, [x - modulus if x > half else x for x in coords])


def _sum_table(p: int, ell: int, omega: int) -> list[list[int]]:
    """table[a][b] = G(a, b) at xi_p -> omega in F_ell, for all a, b mod p,
    in O(p^2).  The shift n -> n + m of the summation index gives
    G(a, b + 2am) = omega^-(a m^2 + b m) G(a, b), so one sum per coset of
    2a Z/p in Z/p has its exponents a n^2 + b n counted against a table of
    the powers of omega, and the rest of the coset follows."""
    powers = [1]
    for _ in range(p - 1):
        powers.append(powers[-1] * omega % ell)
    squares = [n * n % p for n in range(p)]
    table = []
    for a in range(p):
        row = [0] * p
        cosets = math.gcd(2 * a, p)
        for b in range(cosets):
            base = sum([powers[(a * s + b * n) % p] for n, s in enumerate(squares)])
            for m in range(p // cosets):
                row[(b + 2 * a * m) % p] = base * powers[-(a * m * m + b * m) % p] % ell
        table.append(row)
    return table


def _echelon_mod(rows, ell: int, stop: int | None = None) -> tuple[list[int], int]:
    """(pivot_rows, det): Gaussian elimination mod ell of int rows, one row
    at a time, until the rows run out, every column has a pivot or there
    are stop pivots.  rows may be any iterable: a row never reached is
    never made.

    Each row is reduced against the pivots so far, in their order, and is a
    pivot at its first nonzero column if anything is left.  So row i is a
    pivot iff it is independent of the rows before it, and at column j iff
    the leading (i+1) x (j+1) block has more rank than both blocks one
    shorter: the rank profile, where column-by-column elimination with the
    first remaining nonzero row as pivot also puts them (the same argument
    on the transpose).  pivot_rows lists their input indices in column
    order.  det is the determinant of a square input: 0 when a row has no
    pivot, else the product of the pivots times the sign of their columns
    in row order, whose inversions are the free columns left of each pivot
    when it is placed.  A pivot is kept without its column and those
    pivoted before it, and a row drops one column per pivot, so the work is
    that of column-by-column elimination; only pivots are reduced mod ell,
    and other entries grow by one product of two residues per pivot."""
    free: list[int] | None = None  # the columns with no pivot yet
    pivots, found, det, parity = [], [], 1, 0
    for index, row in enumerate(rows):
        if free is None:
            free = list(range(len(row)))
        row = list(row)
        for pos, minus_inv, tail in pivots:
            f = row.pop(pos) * minus_inv % ell
            if f:
                row = [a + f * b for a, b in zip(row, tail)]
        pos = next((j for j, a in enumerate(row) if a % ell), None)
        if pos is None:
            det = 0
            continue
        head = row.pop(pos) % ell
        det, parity = det * head % ell, parity ^ pos & 1
        pivots.append((pos, ell - pow(head, -1, ell), [b % ell for b in row]))
        found.append((free.pop(pos), index))
        if not free or len(found) == stop:
            break
    return [index for _, index in sorted(found)], -det % ell if parity else det


def _vandermonde_solve(nodes: list[int], values: list[int], ell: int) -> list[int]:
    """The d_0..d_(w-1) mod ell with sum_j d_j nodes[i]^j = values[i] for w
    distinct nodes, in O(w^2): divided differences, then the Newton form
    expanded to monomial coefficients (Bjorck-Pereyra, as in interpolate_f)."""
    w = len(nodes)
    a = list(values)
    for step in range(1, w):
        for i in range(w - 1, step - 1, -1):
            a[i] = (a[i] - a[i - 1]) * pow(nodes[i] - nodes[i - step], -1, ell) % ell
    for step in range(w - 2, -1, -1):
        for i in range(step, w - 1):
            a[i] = (a[i] - nodes[step] * a[i + 1]) % ell
    return a
