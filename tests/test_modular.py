"""Images mod primes l = 1 (mod n): the moduli, the one elimination mod l
and the Vandermonde solves mod l, and the table of Gauss sums at omega."""

import random

from lenswrt import analysis, modular
from lenswrt.analysis import build_f_matrix, fullrank_submatrix, kernel, rank, recover_skein
from lenswrt.gauss import GaussSumSpec, gauss_sum
from lenswrt.laurent import LaurentPoly
from lenswrt.numtheory import is_prime
from lenswrt.wrt import LensSpace


def laplace_determinant(rows):
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * laplace_determinant([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def first_nonzero_pivots(rows, ell):
    """The pivot rows, in column order, of textbook elimination mod ell that
    keeps every column and reduces every entry at every step."""
    remaining = {k: [a % ell for a in row] for k, row in enumerate(rows)}
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
            remaining[k] = [(a - f * b) % ell for a, b in zip(row, pivot_row)]
    return chosen


def test_successive_moduli():
    # each search continues from the prime before: the primes = 1 (mod n)
    # above 2^62 in increasing order, none skipped, each with an omega of
    # exact order n
    for n in range(1, 31):
        previous = 2**62
        for index in range(4):
            ell, omega, t = modular._modulus(n, index)
            assert is_prime(ell) and (ell - 1) % n == 0 and ell > previous, (n, index)
            assert not any(is_prime(m) for m in range(ell - n, previous, -n)), (n, index)
            assert pow(omega, n, ell) == 1, (n, index)
            assert all(pow(omega, n // f, ell) != 1 for f in range(2, n + 1) if n % f == 0 and is_prime(f)), (n, index)
            assert 0 < t < ell, (n, index)
            previous = ell
    assert modular._modulus(7) == modular._modulus(7, 0)


def test_sum_table_holds_every_gauss_sum_at_omega():
    # one counted sum per coset of 2a Z/p in Z/p and the shift identity for
    # the rest, at odd and even orders: gcd(2a, p) cosets in row a, and p of
    # one element each at a = 0
    for p in range(2, 31):
        ell, omega, _ = modular._modulus(p, 1)
        table = modular._sum_table(p, ell, omega)
        for a in range(p):
            for b in range(p):
                assert table[a][b] == gauss_sum(GaussSumSpec(p, a, b)).image_mod(ell, omega), (p, a, b)


def test_determinant_mod_l_matches_the_integer_determinant():
    # zeros force row swaps, a repeated row makes the matrix singular, and
    # entries up to l leave the unreduced rows to grow
    ell = modular._modulus(5)[0]
    rng = random.Random(7)
    for trial in range(200):
        n = rng.randint(1, 5)
        bound = rng.choice((3, ell))
        rows = [[rng.randrange(-bound, bound) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)]
        if trial % 10 == 0 and n > 1:
            rows[-1] = list(rows[0])
        expected = laplace_determinant(rows) % ell
        assert modular._echelon_mod([list(row) for row in rows], ell)[1] == expected, rows


def test_pivot_rows_are_the_first_nonzero_rows():
    # lazy reduction and dropped columns pick the pivots of textbook
    # elimination: columns without a pivot, more rows than columns and the
    # reverse (rows run out before the last column), entries >= l and < 0
    ell = modular._modulus(7)[0]
    cases = [
        [[0, 1], [0, 2]],
        [[ell, 1], [-2 * ell, 3], [5, 0]],
        [[1, 2, 3]],
        [[1, 2, 3], [2, 4, 6], [0, 0, 1]],
        [[2, 1], [ell - 1, -1], [3, 4], [1, 0]],
    ]
    rng = random.Random(11)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        bound = rng.choice((2, ell, 3 * ell))
        rows = [[rng.randrange(-bound, bound) if rng.random() < 0.6 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        if rng.random() < 0.3:
            zero = rng.randrange(ncols)
            for row in rows:
                row[zero] = rng.randint(-2, 2) * ell
        if nrows > 1 and rng.random() < 0.3:
            rows[-1] = [2 * a - ell for a in rows[0]]
        cases.append(rows)
    for rows in cases:
        pivots, det = modular._echelon_mod([list(row) for row in rows], ell)
        assert pivots == first_nonzero_pivots(rows, ell), rows
        if len(rows) == len(rows[0]):
            assert det == laplace_determinant(rows) % ell, rows


def test_every_elimination_mod_l_is_echelon_mod(monkeypatch):
    # the image test of rank, kernel and recover_skein and the certificate
    # determinants all eliminate mod l through the one routine: the image
    # of the integer descended rows mod the one prime _modulus(1), the
    # determinants mod primes l = 1 (mod 5), which need omega of order 5
    calls = []
    echelon = modular._echelon_mod
    monkeypatch.setattr(modular, "_echelon_mod", lambda rows, ell: calls.append(ell) or echelon(rows, ell))
    space = LensSpace(5, 2)
    image, certificate = {modular._modulus(1)[0]}, {modular._modulus(5, index)[0] for index in range(4)}
    for name, run, allowed in (
        ("rank", lambda: rank(build_f_matrix(space)), image),
        ("kernel", lambda: kernel(space), image),
        ("recover_skein", lambda: recover_skein(space, [LaurentPoly("z")] * 5), image),
        ("fullrank_submatrix", lambda: fullrank_submatrix(space), certificate),
    ):
        calls.clear()
        analysis._F_MATRICES.clear()  # else kernel reads the basis that rank proved
        run()
        assert calls and set(calls) <= allowed, name


def test_vandermonde_solve_recovers_the_coefficients():
    ell, omega, _ = modular._modulus(13)
    rng = random.Random(3)
    for w in (1, 2, 5, 12):
        coeffs = [rng.randrange(ell) for _ in range(w)]
        nodes = [pow(omega, u, ell) for u in rng.sample(range(1, 13), w)]
        values = [sum(d * pow(x, j, ell) for j, d in enumerate(coeffs)) % ell for x in nodes]
        assert modular._vandermonde_solve(nodes, values, ell) == coeffs, w
