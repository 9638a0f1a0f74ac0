"""Number-theory layer: every frozen value below is checked against an
independent in-test oracle (exhaustive search or the defining sum)."""

import math
from fractions import Fraction

import pytest

from lenswrt.numtheory import (
    OrderClass,
    classify_order,
    count_squares_mod,
    dedekind_sum,
    is_prime,
    j_letter,
    jacobi_symbol,
    lens_matrix,
    mat_mul,
    mod_inverse,
    rademacher_phi,
    sl2_expand,
)


def brute_inverse(t, u):
    return next(x for x in range(u) if (t * x) % u == 1)


def brute_dedekind(q, p):
    def saw(num, den):
        x = Fraction(num, den)
        if x.denominator == 1:
            return Fraction(0)
        return x - (x.numerator // x.denominator) - Fraction(1, 2)

    return sum((saw(n, p) * saw(q * n, p) for n in range(1, p)), Fraction(0))


class TestModInverse:
    def test_identity(self):
        for n in (2, 5, 9, 100):
            assert mod_inverse(1, n) == 1

    def test_frozen_values(self):
        assert mod_inverse(4, 9) == 7 == brute_inverse(4, 9)
        assert mod_inverse(3, 7) == 5 == brute_inverse(3, 7)

    def test_matches_brute_force(self):
        for u in range(2, 40):
            for t in range(1, u):
                if math.gcd(t, u) == 1:
                    assert mod_inverse(t, u) == brute_inverse(t, u)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            mod_inverse(6, 9)
        with pytest.raises(ValueError):
            mod_inverse(2, 1)


class TestJacobi:
    def test_one_numerator(self):
        for b in (1, 3, 9, 15, 45):
            assert jacobi_symbol(1, b) == 1

    def test_two_mod_three(self):
        # 2 is not a square mod 3
        assert {n * n % 3 for n in range(3)} == {0, 1}
        assert jacobi_symbol(2, 3) == -1

    def test_two_mod_fifteen(self):
        # multiplicativity: (2/15) = (2/3)(2/5), both -1 by enumeration
        assert 2 not in {n * n % 5 for n in range(5)}
        assert jacobi_symbol(2, 15) == jacobi_symbol(2, 3) * jacobi_symbol(2, 5) == 1

    def test_legendre_by_enumeration(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            squares = {n * n % p for n in range(1, p)}
            for a in range(1, p):
                expected = 1 if a % p in squares else -1
                assert jacobi_symbol(a, p) == expected

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            jacobi_symbol(3, 4)


class TestDedekindSum:
    def test_small_values(self):
        assert dedekind_sum(1, 2) == 0
        assert dedekind_sum(1, 3) == Fraction(1, 18) == brute_dedekind(1, 3)

    def test_inverse_argument_symmetry(self):
        # s(q*, p) = s(q, p) at (q, p) = (2, 5), where 2* = 3 mod 5
        assert dedekind_sum(3, 5) == dedekind_sum(2, 5)

    def test_periodicity(self):
        for p in range(2, 20):
            for q in range(1, p):
                if math.gcd(q, p) == 1:
                    assert dedekind_sum(q + p, p) == dedekind_sum(q, p)

    def test_six_p_s_is_integer(self):
        for p in range(1, 60):
            for q in range(1, p + 1):
                if math.gcd(q, p) == 1:
                    assert (6 * p * dedekind_sum(q, p)).denominator == 1

    def test_reciprocity(self):
        for p in range(2, 31):
            for q in range(1, p):
                if math.gcd(q, p) != 1:
                    continue
                lhs = dedekind_sum(q, p) + dedekind_sum(p, q)
                rhs = Fraction(-1, 4) + (Fraction(p, q) + Fraction(q, p) + Fraction(1, q * p)) / 12
                assert lhs == rhs

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            dedekind_sum(3, 9)


class TestSquaresCount:
    def test_nine(self):
        assert {n * n % 9 for n in range(9)} == {0, 1, 4, 7}
        assert count_squares_mod(9) == 4

    def test_odd_primes(self):
        for p in (3, 5, 7, 11, 13, 31, 47):
            assert count_squares_mod(p) == (p + 1) // 2
        assert count_squares_mod(7) == 4

    def test_multiplicative(self):
        assert count_squares_mod(15) == count_squares_mod(3) * count_squares_mod(5) == 6
        for a, b in ((3, 8), (5, 9), (7, 4)):
            assert count_squares_mod(a * b) == count_squares_mod(a) * count_squares_mod(b)

    def test_composite_bound(self):
        # below [p/2] for composite p other than 4, 9, and twice odd primes
        primes = [n for n in range(2, 101) if all(n % f for f in range(2, n))]
        exceptions = {4, 9} | {2 * s for s in primes if s % 2 == 1}
        for p in range(2, 201):
            if p in primes or (p <= 200 and p in exceptions):
                continue
            if any(p % f == 0 for f in range(2, p)):
                assert count_squares_mod(p) < p // 2, p


MR_BOUND = 3317044064679887385961981  # the least strong pseudoprime to the bases 2..41


class TestIsPrime:
    def test_matches_sieve(self):
        n = 10**5
        sieve = [False, False] + [True] * (n - 2)
        for f in range(2, int(n**0.5) + 1):
            if sieve[f]:
                sieve[f * f :: f] = [False] * len(range(f * f, n, f))
        assert [m for m in range(-3, n) if is_prime(m)] == [m for m in range(n) if sieve[m]]

    def test_strong_pseudoprimes(self):
        # the least strong pseudoprimes to the prime bases up to 31 and up to 37
        assert 149491 * 747451 * 34233211 == 3825123056546413051
        assert 399165290221 * 798330580441 == 318665857834031151167461
        assert not is_prime(3825123056546413051)
        assert not is_prime(318665857834031151167461)
        assert not is_prime(3215031751)  # strong pseudoprime to 2, 3, 5, 7

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185):
            assert not is_prime(n), n
            assert all(pow(b, n - 1, n) == 1 for b in range(2, 50) if math.gcd(b, n) == 1)

    def test_large_primes(self):
        for n in (2**31 - 1, 2**61 - 1, 2**64 - 59, 2**80 - 65, 3317044064679887385961813):
            assert is_prime(n), n
        assert not is_prime((2**19 - 1) * (2**61 - 1))

    def test_refused_at_the_bound(self):
        assert 1287836182261 * 2575672364521 == MR_BOUND
        for n in (MR_BOUND, MR_BOUND + 2, 2**89 - 1):
            with pytest.raises(ValueError):
                is_prime(n)


class TestClassifyOrder:
    def test_known_orders(self):
        assert classify_order(7) is OrderClass.DETERMINING
        assert classify_order(9) is OrderClass.NON_DETERMINING
        assert classify_order(2) is OrderClass.DETERMINING
        assert classify_order(4) is OrderClass.NON_DETERMINING
        assert classify_order(14) is OrderClass.DETERMINING

    def test_squares_heuristic_matches_except_four_and_nine(self):
        for p in range(2, 101):
            if p in (4, 9):
                assert classify_order(p) is OrderClass.NON_DETERMINING
                assert count_squares_mod(p) >= p // 2
                continue
            heuristic = count_squares_mod(p) >= p // 2
            assert (classify_order(p) is OrderClass.DETERMINING) == heuristic


class TestSL2Expansion:
    def test_reconstruction(self):
        for p in range(2, 51):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                word = sl2_expand(p, q)
                assert word.m[-1] == 0
                assert len(word.m) > 1
                product = j_letter(word.m[0])
                for m in word.m[1:]:
                    product = mat_mul(j_letter(m), product)
                assert product == lens_matrix(p, q)
                for partial in word.partial_matrices:
                    a, b = partial[0]
                    c, d = partial[1]
                    assert a * d - b * c == 1

    def test_lower_left_entry(self):
        assert lens_matrix(2, 1)[1][0] == 2
        word = sl2_expand(2, 1)
        assert word.matrix[1][0] == 2

    def test_weight_recursion(self):
        word = sl2_expand(12, 5)
        assert word.weights[0] == 0
        lower = [m[1][0] for m in word.partial_matrices]
        for i in range(1, len(lower)):
            step = word.weights[i] - word.weights[i - 1]
            prod = lower[i - 1] * lower[i]
            assert step == (prod > 0) - (prod < 0)


class TestRademacherPhi:
    @pytest.mark.parametrize("p,q", [(3, 1), (9, 4), (12, 5)])
    def test_framing_identity(self, p, q):
        d = mod_inverse(q, p)
        b = (q * d - 1) // p
        phi = rademacher_phi(p, q)
        assert p * b - p * q * phi + q * q + 1 == 12 * p * q * dedekind_sum(q, p)

    def test_closed_form_cross_check(self):
        for p in range(2, 51):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                d = mod_inverse(q, p)
                closed = Fraction(q + d, p) - 12 * dedekind_sum(d, p)
                assert closed == rademacher_phi(p, q)
