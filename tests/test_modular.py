"""Images mod primes l = 1 (mod n): the moduli, determinants and
Vandermonde solves mod l, and the table of Gauss sums at omega."""

import random

from lenswrt import modular
from lenswrt.gauss import GaussSumSpec, gauss_sum
from lenswrt.numtheory import is_prime


def laplace_determinant(rows):
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * laplace_determinant([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


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
        assert modular._det_mod([list(row) for row in rows], ell) == expected, rows


def test_vandermonde_solve_recovers_the_coefficients():
    ell, omega, _ = modular._modulus(13)
    rng = random.Random(3)
    for w in (1, 2, 5, 12):
        coeffs = [rng.randrange(ell) for _ in range(w)]
        nodes = [pow(omega, u, ell) for u in rng.sample(range(1, 13), w)]
        values = [sum(d * pow(x, j, ell) for j, d in enumerate(coeffs)) % ell for x in nodes]
        assert modular._vandermonde_solve(nodes, values, ell) == coeffs, w
