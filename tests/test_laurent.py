"""Laurent polynomial and rational-function arithmetic properties."""

import random
from fractions import Fraction

import pytest

from lenswrt.cyclotomic import root_of_unity
from lenswrt.laurent import LaurentPoly, RationalFunction, laurent_gcd


def rand_poly(rng, var="z", span=4, bound=6, cyclotomic_order=None):
    terms = {}
    for e in range(-span, span + 1):
        if rng.random() < 0.5:
            c = rng.randint(-bound, bound)
            if cyclotomic_order and rng.random() < 0.3:
                terms[e] = c * root_of_unity(cyclotomic_order, rng.randrange(cyclotomic_order))
            else:
                terms[e] = c
    return LaurentPoly(var, terms)


class TestBasics:
    def test_zero_terms_dropped(self):
        poly = LaurentPoly("z", {3: 0, 1: 2, -1: Fraction(0)})
        assert set(poly.terms) == {1}

    def test_degree_valuation(self):
        poly = LaurentPoly("z", {-3: 1, 5: 2})
        assert poly.valuation() == -3 and poly.degree() == 5
        assert poly.trailing_coeff() == 1 and poly.leading_coeff() == 2
        with pytest.raises(ValueError):
            LaurentPoly("z").degree()

    def test_variable_mismatch(self):
        with pytest.raises(ValueError):
            LaurentPoly("z", {0: 1, 1: 1}) * LaurentPoly("A", {1: 1, 2: 1})

    def test_shift_and_substitution(self):
        poly = LaurentPoly("A", {0: 1, 1: 2, 2: -1})
        z_form = poly.subst_signed_power(5, "z")
        assert z_form == LaurentPoly("z", {0: 1, 5: -2, 10: -1})
        assert poly.shift(3).valuation() == 3

    @pytest.mark.parametrize("exponent", [1.5, "2", 2.0, Fraction(4, 2)],
                             ids=["float", "str", "whole-float", "fraction"])
    def test_non_integer_exponent_rejected(self, exponent):
        with pytest.raises(TypeError):
            LaurentPoly("z", {exponent: 3})

    def test_fraction_coefficients_normalize(self):
        poly = LaurentPoly("z", {0: Fraction(4, 2)})
        assert poly.coeff(0) == 2


class TestRingProperties:
    def test_ring_axioms(self):
        rng = random.Random(31)
        for _ in range(25):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)

    def test_divexact_inverts_multiplication(self):
        rng = random.Random(32)
        for _ in range(25):
            a = rand_poly(rng, cyclotomic_order=7)
            b = rand_poly(rng, cyclotomic_order=7)
            if b.is_zero():
                continue
            assert (a * b).divexact(b) == a

    def test_divexact_rejects_remainder(self):
        with pytest.raises(ArithmeticError):
            LaurentPoly("z", {0: 1, 1: 1}).divexact(LaurentPoly("z", {0: 1, 2: 1}))

    def test_gcd_divides_both(self):
        rng = random.Random(33)
        for _ in range(15):
            g = rand_poly(rng, span=2)
            a = rand_poly(rng, span=2)
            b = rand_poly(rng, span=2)
            if g.is_zero() or a.is_zero() or b.is_zero():
                continue
            d = laurent_gcd(a * g, b * g)
            (a * g).divexact(d)
            (b * g).divexact(d)
            # the common factor g divides the gcd
            d.divexact(laurent_gcd(d, g))

    def test_conjugation_fixes_rational_coeffs(self):
        poly = LaurentPoly("z", {1: Fraction(2, 3), -2: 5})
        assert poly.conj_coeffs() == poly
        xi = root_of_unity(5, 1)
        twisted = LaurentPoly("z", {0: xi})
        assert twisted.conj_coeffs() == LaurentPoly("z", {0: xi.conjugate()})


class TestRationalFunction:
    def test_reduction_to_polynomial(self):
        num = LaurentPoly("z", {0: 1, 1: 2, 2: 1})  # (1+z)^2
        den = LaurentPoly("z", {0: 1, 1: 1})
        rf = RationalFunction(num, den)
        assert rf.is_polynomial()
        assert rf.as_polynomial() == LaurentPoly("z", {0: 1, 1: 1})

    def test_monomial_denominator_absorbed(self):
        rf = RationalFunction(LaurentPoly("z", {0: 1}), LaurentPoly("z", {3: 2}))
        assert rf.is_polynomial()
        assert rf.as_polynomial() == LaurentPoly("z", {-3: Fraction(1, 2)})

    def test_field_axioms(self):
        rng = random.Random(34)
        for _ in range(15):
            polys = [rand_poly(rng, span=2, bound=3) for _ in range(4)]
            if any(p.is_zero() for p in polys):
                continue
            a = RationalFunction(polys[0], polys[1])
            b = RationalFunction(polys[2], polys[3])
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) - b == a
            assert (a * b) / b == a

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(LaurentPoly("z", {0: 1}), LaurentPoly("z"))
