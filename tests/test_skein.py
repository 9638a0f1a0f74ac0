"""Basis conversion in the skein module and the element container."""

import pytest

from lenswrt.laurent import LaurentPoly
from lenswrt.skein import (
    SkeinElement,
    chebyshev_expand,
    chebyshev_matrix,
    power_to_colored,
)


class TestChebyshevExpansion:
    def test_base_cases(self):
        assert chebyshev_expand(0) == [1]
        assert chebyshev_expand(-1) == []
        assert chebyshev_expand(1) == [0, 1]
        assert chebyshev_expand(2) == [-1, 0, 1]

    def test_recursion_holds(self):
        for c in range(2, 15):
            e_c = chebyshev_expand(c)
            alpha_e = [0] + chebyshev_expand(c - 1)
            e_prev = chebyshev_expand(c - 2)
            rhs = [a - (e_prev[i] if i < len(e_prev) else 0) for i, a in enumerate(alpha_e)]
            while rhs and rhs[-1] == 0:
                rhs.pop()
            assert e_c == rhs

    def test_negative_mirror(self):
        assert chebyshev_expand(-2) == [-1]
        for c in range(0, 11):
            plus = chebyshev_expand(c)
            minus = chebyshev_expand(-c - 2)
            assert minus == [-v for v in plus]

    def test_parity(self):
        for c in range(0, 15):
            for i, coeff in enumerate(chebyshev_expand(c)):
                if (i - c) % 2 != 0:
                    assert coeff == 0


class TestBasisMatrices:
    def test_unitriangular(self):
        n = 20
        mat = chebyshev_matrix(n)
        for j in range(n + 1):
            assert mat[j][j] == 1
            for i in range(j + 1, n + 1):
                assert mat[i][j] == 0

    def test_round_trip_identity(self):
        n = 20
        e_in_powers = chebyshev_matrix(n)
        # columns of the inverse: alpha^c in the colored basis, p chosen large enough
        p = 2 * n + 1
        inverse_cols = [
            [power_to_colored(p, c).coeffs[i].coeff(0) for i in range(n + 1)]
            for c in range(n + 1)
        ]
        for i in range(n + 1):
            for j in range(n + 1):
                entry = sum(e_in_powers[i][k] * inverse_cols[j][k] for k in range(n + 1))
                assert entry == (1 if i == j else 0)


class TestPowerToColored:
    def test_small_cases(self):
        assert power_to_colored(5, 1) == SkeinElement(5, [0, 1, 0])
        x2 = power_to_colored(5, 2)
        assert x2 == SkeinElement(5, [1, 0, 1])  # alpha^2 = e_2 + e_0

    def test_odd_powers_use_odd_colors(self):
        for p, c in ((4, 1), (8, 3), (12, 5)):
            element = power_to_colored(p, c)
            for index in range(0, p // 2 + 1, 2):
                assert element.coeffs[index].is_zero(), (p, c, index)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            power_to_colored(5, 3)
        with pytest.raises(ValueError):
            power_to_colored(5, -1)


class TestSkeinElement:
    def test_scale_cancellation(self):
        mu1 = SkeinElement(5, [0, 1, 0])
        a_sq = LaurentPoly("A", {2: 1})
        total = mu1.scale(a_sq) + mu1.scale(-a_sq)
        assert total.is_zero()

    def test_serialization_round_trip(self):
        element = SkeinElement(7, [LaurentPoly("A", {-2: 3, 1: -1}), 0, 2, LaurentPoly("A", {0: 5})])
        assert SkeinElement.from_json(element.to_json()) == element

    def test_power_minus_colored(self):
        x2 = power_to_colored(5, 2)
        mu2 = SkeinElement(5, [0, 0, 1])
        assert x2 - mu2 == SkeinElement(5, [1, 0, 0])

    def test_length_validation(self):
        with pytest.raises(ValueError):
            SkeinElement(5, [1, 2])

    def test_module_axioms(self):
        a = SkeinElement(4, [LaurentPoly("A", {1: 1}), 2, 0])
        b = SkeinElement(4, [0, LaurentPoly("A", {-1: 1}), 3])
        f = LaurentPoly("A", {0: 2, 2: -1})
        assert (a + b).scale(f) == a.scale(f) + b.scale(f)
        assert a + b == b + a
