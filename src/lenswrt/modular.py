"""Exact answers over Q(xi_n) from their images mod primes l = 1 (mod n).

For omega of exact order n in F_l and each unit u, xi_n -> omega^u maps
Z[xi_n] to F_l: the image of the conjugate sigma_u.  A Vandermonde solve
on the images gives the power-basis coordinates mod l, and CRT over
successive primes, up to a proven bound, gives them over Z.
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


def _gauss_determinant(p: int, row_a: list[int], col_b: list[int], bound2: int) -> CyclotomicNumber:
    """det [G(a_i, b_j)], G(a, b) = sum_n xi_p^(a n^2 + b n), from its images
    mod primes l = 1 (mod p), given bound2 >= B^2 for a B >= |sigma(det)| at
    every embedding sigma; fullrank_submatrix states the method and the proof."""
    units = [u for u in range(1, p) if math.gcd(u, p) == 1]
    coords, modulus, index = [0] * len(units), 1, 0
    while modulus * modulus <= 16 * bound2:
        ell, omega, _ = _modulus(p, index)
        table = _sum_table(p, ell, omega)
        values = []
        for u in units:  # sigma_u G(a, b) = G(ua, ub)
            cols = [u * b % p for b in col_b]
            values.append(_det_mod([[sums[x] for x in cols] for sums in (table[u * a % p] for a in row_a)], ell))
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


def _det_mod(rows: list[list[int]], ell: int) -> int:
    """The determinant mod ell of a square int matrix, by Gaussian elimination
    that drops the pivot row and column at each step.  Only the pivot row
    and the multipliers are reduced; every other entry grows by one product
    of two residues per step."""
    det = 1
    while rows:
        piv = next((i for i, row in enumerate(rows) if row[0] % ell), None)
        if piv is None:
            return 0
        pivot_row = rows.pop(piv)
        head = pivot_row[0] % ell
        det = (-det if piv % 2 else det) * head % ell  # piv swaps bring the pivot row to the top
        minus_inv = ell - pow(head, -1, ell)
        tail = [b % ell for b in pivot_row[1:]]
        rows = [
            [a + f * b for a, b in zip(row[1:], tail)] if (f := row[0] * minus_inv % ell) else row[1:]
            for row in rows
        ]
    return det


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
