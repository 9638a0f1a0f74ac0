"""Generalized Gauss sums: direct summation, symmetries, closed forms."""

import math

import pytest

from lenswrt import gauss, modular
from lenswrt.cyclotomic import root_of_unity
from lenswrt.errors import UnsupportedCase
from lenswrt.gauss import (
    GaussSumSpec,
    _counted_sum,
    _odd_prime_closed_form,
    _quadratic_sum,
    _tabled_sum,
    g_pm,
    gauss_closed_form,
    gauss_sum,
    vanishes_mod4,
)
from lenswrt.numtheory import is_prime, jacobi_symbol, mod_inverse


class TestDirectSum:
    def test_base_case(self):
        assert gauss_sum(GaussSumSpec(2, 1, 1)) == 2

    def test_trivial_quadratic_part(self):
        for p in (2, 3, 7, 12):
            assert gauss_sum(GaussSumSpec(p, 0, 0)) == p
            for b in range(1, p):
                assert gauss_sum(GaussSumSpec(p, 0, b)).is_zero()

    def test_vanishing_instance(self):
        # 1 + xi_4^4 + xi_4^10 + xi_4^18 = 1 + 1 - 1 - 1
        assert gauss_sum(GaussSumSpec(4, 1, 3)).is_zero()

    def test_reduction_mod_p(self):
        assert gauss_sum(GaussSumSpec(7, 9, -3)) == gauss_sum(GaussSumSpec(7, 2, 4))


class TestGPlusMinus:
    def test_periodicity_in_k(self):
        for sign in (1, -1):
            assert g_pm(5, 2, 1, 3, sign) == g_pm(5, 2, 1, 3 + 5, sign)

    def test_periodicity_in_c(self):
        for sign in (1, -1):
            assert g_pm(7, 3, 2, 4, sign) == g_pm(7, 3, 2 + 7, 4, sign)

    def test_conjugation_in_k(self):
        for sign in (1, -1):
            assert g_pm(7, 3, 2, 4, sign) == g_pm(7, 3, 2, -4, sign).conjugate()

    def test_mod4_vanishing_instance(self):
        for k in range(4):
            assert g_pm(4, 1, 1, k, 1).is_zero()
            assert g_pm(4, 1, 1, k, -1).is_zero()

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            g_pm(6, 2, 1, 1, 1)

    def test_rejects_a_modulus_below_two(self):
        with pytest.raises(ValueError):
            g_pm(1, 1, 0, 0, 1)

    def test_equals_the_gauss_sum_of_its_spec(self):
        # g_pm counts the exponents itself, without a GaussSumSpec; colors
        # below 0 and above p/2 and every k included
        for p in range(2, 17):
            for q in (q for q in range(1, p) if math.gcd(p, q) == 1):
                for c in range(-1, p):
                    for k in range(p):
                        for sign in (1, -1):
                            expected = gauss_sum(GaussSumSpec(p, q * k, q * c + q + sign))
                            got = g_pm(p, q, c, k, sign)
                            assert got == expected and got.order == p, (p, q, c, k, sign)


class TestSumTable:
    """g_pm takes each sum from one table keyed by (p, a mod p, b mod p);
    gauss_sum counts afresh and never reads or fills it."""

    def test_tabled_sums_equal_fresh_counts(self):
        for p in range(2, 41):
            fresh = {}  # one fresh count per reduced spec, compared with every (q, c, k, sign) mapping to it
            for q in (q for q in range(1, p) if math.gcd(p, q) == 1):
                for c in range(p):
                    for k in range(p):
                        for sign in (1, -1):
                            a, b = q * k, q * c + q + sign
                            expected = fresh.get((a % p, b % p))
                            if expected is None:
                                expected = fresh[a % p, b % p] = gauss_sum(GaussSumSpec(p, a, b))
                            got = g_pm(p, q, c, k, sign)
                            assert got == expected and got.order == p, (p, q, c, k, sign)

    def test_table_equals_the_count_at_every_key(self):
        # the zero rule, G(a, b; p) = 0 unless gcd(a, p) | b, at every key
        for p in range(2, 41):
            for a in range(p):
                for b in range(p):
                    got = _tabled_sum(p, a, b)
                    assert got == _counted_sum(p, a, b) and got.order == p, (p, a, b)

    def test_only_the_reference_counts_a_vanishing_key(self, monkeypatch):
        # gcd(2, 12) = 2 does not divide 1: the table answers 0 uncounted,
        # gauss_sum still counts it; a key with g | b is counted by both
        counted = []
        count = gauss._counted_sum
        monkeypatch.setattr(gauss, "_counted_sum", lambda p, a, b: counted.append((p, a, b)) or count(p, a, b))
        assert _tabled_sum.__wrapped__(12, 2, 1).is_zero() and counted == []
        assert gauss_sum(GaussSumSpec(12, 2, 1)).is_zero() and counted == [(12, 2, 1)]
        assert _tabled_sum.__wrapped__(12, 2, 4) == count(12, 2, 4) and counted[-1] == (12, 2, 4)

    def test_one_entry_per_reduced_spec(self):
        # colors c and c + p, and spaces q and q + p, share one sum
        assert g_pm(13, 2, 3, 5, 1) is g_pm(13, 2, 3 + 13, 5, 1) is g_pm(13, 15, 3, 5, 1)

    def test_direct_sums_leave_the_table_alone(self):
        # criterion 12's sweep: every supported closed form against a fresh direct sum
        before = _tabled_sum.cache_info()
        for p in range(2, 41):
            for a in range(p):
                for b in range(p):
                    spec = GaussSumSpec(p, a, b)
                    direct = gauss_sum(spec)
                    try:
                        assert gauss_closed_form(spec) == direct, (p, a, b)
                    except UnsupportedCase:
                        pass
        assert _tabled_sum.cache_info() == before


class TestModulusBound:
    """|G(a, b; p)|^2 is 0, p gcd(a, p) or 2p gcd(a, p): the closed form
    that bounds the certificate determinants' conjugates."""

    ORDERS = [p for p in range(2, 31) if is_prime(p) or p % 2 == 0 and is_prime(p // 2) and p // 2 % 2 == 1] + [43, 59]

    def test_squared_modulus_is_an_integer_of_the_closed_form(self):
        for p in self.ORDERS:
            for a in range(p):
                allowed = {0, p * math.gcd(a, p), 2 * p * math.gcd(a, p)}
                for b in range(p):
                    g = gauss_sum(GaussSumSpec(p, a, b))
                    norm = g * g.conjugate()
                    assert norm.is_rational() and norm.denominator == 1, (p, a, b)
                    assert norm.coeffs[0] in allowed, (p, a, b, norm)

    def test_hadamard_square_is_the_product_formula(self):
        for p in self.ORDERS:
            for row_a in ([], [0], list(range(p)), [1, p - 1, 2 % p]):
                for width in (1, 3, p // 2 + 1):
                    expected = math.prod(width * 2 * p * math.gcd(a, p) for a in row_a)
                    assert modular._hadamard_square(p, row_a, width) == expected, (p, row_a, width)


class TestVanishesMod4:
    def test_flags(self):
        assert vanishes_mod4(4, 1)
        assert vanishes_mod4(8, 3)
        assert not vanishes_mod4(6, 1)

    def test_flag_is_faithful(self):
        for k in range(8):
            assert g_pm(8, 3, 3, k, 1).is_zero()
            assert g_pm(8, 3, 3, k, -1).is_zero()


class TestSquareCongruenceCollapse:
    def test_square_congruent_linear_parts_odd_modulus(self):
        # For odd p and a invertible, the sum depends on b only through
        # b^2 mod p (completing the square).  Even p genuinely violates
        # this, e.g. (p,a,b,b') = (4,1,0,2), as does gcd(a,p) > 1 at
        # (9,3,0,3); those cases are excluded.
        for p in range(3, 31, 2):
            for a in range(1, p):
                if math.gcd(a, p) != 1:
                    continue
                seen = {}
                for b in range(p):
                    key = b * b % p
                    value = gauss_sum(GaussSumSpec(p, a, b))
                    if key in seen:
                        assert seen[key] == value, (p, a, b)
                    else:
                        seen[key] = value

    def test_negated_linear_part_any_modulus(self):
        for p in range(2, 25):
            for a in range(p):
                for b in range(p):
                    assert gauss_sum(GaussSumSpec(p, a, b)) == gauss_sum(GaussSumSpec(p, a, -b))


class TestClosedForm:
    def test_self_consistency_at_a_equals_one(self):
        spec = GaussSumSpec(5, 1, 0)
        assert gauss_closed_form(spec) == gauss_sum(spec)

    def test_odd_prime_example(self):
        spec = GaussSumSpec(7, 3, 2)
        assert gauss_closed_form(spec) == gauss_sum(spec)

    def test_twice_odd_prime_displays(self):
        # G_10(q*5, c): zero when c is coprime to 5, 2s = 10 when c = 5
        s, q = 5, 3
        for c in (1, 2, 3, 4, 6, 7, 8, 9):
            spec = GaussSumSpec(2 * s, q * s, c)
            assert gauss_closed_form(spec).is_zero()
            assert gauss_sum(spec).is_zero()
        spec = GaussSumSpec(2 * s, q * s, s)
        assert gauss_closed_form(spec) == 10 == gauss_sum(spec)

    def test_even_even_halving(self):
        # G_2s(2a', 2b') = 2 G_s(a', b')
        for (s, a1, b1) in ((3, 1, 2), (5, 2, 3), (7, 3, 1)):
            spec = GaussSumSpec(2 * s, 2 * a1, 2 * b1)
            assert gauss_closed_form(spec) == 2 * gauss_sum(GaussSumSpec(s, a1, b1))

    def test_opposite_parity_vanishing(self):
        for (s, a, b) in ((3, 2, 1), (5, 3, 2), (7, 1, 4)):
            spec = GaussSumSpec(2 * s, a if a % 2 == 0 else a + s, b)  # force opposite parity
            if (spec.a + spec.b) % 2 == 1:
                assert gauss_closed_form(spec).is_zero()

    def test_matches_direct_sum_everywhere_supported(self):
        checked = 0
        for p in range(2, 31):
            for a in range(p):
                for b in range(p):
                    spec = GaussSumSpec(p, a, b)
                    try:
                        closed = gauss_closed_form(spec)
                    except UnsupportedCase:
                        continue
                    assert closed == gauss_sum(spec), (p, a, b)
                    checked += 1
        assert checked > 1000

    def test_rotation_equals_the_phase_product(self):
        # the closed form rotates the quadratic sum; the product it replaces is the reference
        shifts = set()
        for p in range(3, 62, 2):
            if not is_prime(p):
                continue
            for a in range(1, p):
                for b in range(p):
                    shift = -b * b * mod_inverse(4 * a, p) % p
                    shifts.add((p, shift))
                    expected = jacobi_symbol(a, p) * root_of_unity(p, shift) * _quadratic_sum(p)
                    assert _odd_prime_closed_form(p, a, b) == expected, (p, a, b)
        assert (3, 0) in shifts

    def test_unsupported_case_signals(self):
        with pytest.raises(UnsupportedCase):
            gauss_closed_form(GaussSumSpec(12, 1, 0))
        with pytest.raises(UnsupportedCase):
            gauss_closed_form(GaussSumSpec(9, 2, 1))


class TestVandermondeDistinctness:
    def test_lambda_powers_distinct(self):
        # xi_p^(-q* ((p+1)/2)^2 c^2) pairwise distinct for c = 1..[p/2]
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            assert is_prime(p)
            for q in (1, 2):
                if math.gcd(q, p) != 1:
                    continue
                qstar = mod_inverse(q, p)
                base = (-qstar * ((p + 1) // 2) ** 2) % p
                values = [root_of_unity(p, base * c * c) for c in range(1, p // 2 + 1)]
                for i in range(len(values)):
                    for j in range(i + 1, len(values)):
                        assert not values[i] == values[j], (p, q, i, j)
