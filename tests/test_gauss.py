"""Generalized Gauss sums: direct summation, symmetries, closed forms."""

import math

import pytest

from lenswrt.cyclotomic import root_of_unity
from lenswrt.errors import UnsupportedCase
from lenswrt.gauss import (
    GaussSumSpec,
    _odd_prime_closed_form,
    _quadratic_sum,
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
