"""The f-polynomial family, numeric invariants, and the independent oracle."""

import ast
import copy
import math
import pathlib
import pickle
import random
from fractions import Fraction

import mpmath
import pytest

import lenswrt
from lenswrt import wrt
from lenswrt.analysis import interpolate_f, kernel
from lenswrt.cyclotomic import CyclotomicNumber, unit_root
from lenswrt.gauss import GaussSumSpec, g_pm, gauss_sum
from lenswrt.laurent import LaurentPoly, RationalFunction
from lenswrt.skein import SkeinElement, power_to_colored
from lenswrt.wrt import (
    LensSpace,
    eval_link,
    eval_meridian,
    eval_z_combination,
    f_link,
    f_poly,
    jeffrey_oracle,
)


def valid_qs(p):
    return [q for q in range(1, p) if math.gcd(p, q) == 1]


def random_skein(p, rng, max_exp=4, bound=5):
    return SkeinElement(
        p,
        [
            LaurentPoly("A", {e: rng.randint(-bound, bound) for e in range(-max_exp, max_exp + 1)})
            for _ in range(p // 2 + 1)
        ],
    )


class TestLensSpace:
    def test_derived_data(self):
        space = LensSpace(9, 4)
        assert space.d == 7  # 4 * 7 = 28 = 1 mod 9
        assert space.q * space.d - space.b * space.p == 1
        assert (6 * space.p * space.dedekind).denominator == 1

    def test_validation(self):
        for bad in ((1, 1), (4, 2), (5, 0), (5, 5), (9, 3)):
            with pytest.raises(ValueError):
                LensSpace(*bad)


class TestFPolynomial:
    def test_mod4_zero_body(self):
        space = LensSpace(4, 1)
        assert f_poly(space, 1, 1).is_zero()

    def test_conjugation_pairing(self):
        space = LensSpace(5, 2)
        lhs = f_poly(space, 1, 2).signed_body
        rhs = f_poly(space, 1, 3).signed_body.conj_coeffs()
        assert lhs == rhs

    def test_two_term_body_with_direct_sums(self):
        space = LensSpace(2, 1)
        for k in range(2):
            body = f_poly(space, 0, k).body
            exps = sorted(body.terms)
            e0 = int(Fraction(24) * space.dedekind)
            assert set(exps) <= {e0 - 2, e0 + 2}
            gp = gauss_sum(GaussSumSpec(2, k, 2))
            gm = gauss_sum(GaussSumSpec(2, k, 0))
            assert body.coeff(e0 + 2) == gp
            assert body.coeff(e0 - 2) == -gm

    def test_exponent_integrality(self):
        for p, q in ((5, 2), (9, 4), (12, 7)):
            space = LensSpace(p, q)
            for c in range(p // 2 + 1):
                for k in range(p):
                    body = f_poly(space, c, k).body
                    assert all(isinstance(e, int) for e in body.terms)

    def test_body_equals_the_difference_of_its_two_terms(self, monkeypatch):
        # the body is one dict {e0 + off: G+, e0 - off: -G-} without zero
        # sums; it must equal the difference of the two one-term polynomials
        # term for term, in key order and coefficient order, for every k and
        # every color a caller passes: hat_c colors up to p - 1, c = -1 (both
        # sums at one exponent), and the odd c of 4 | p (an empty body)
        empty = set()
        for p in range(2, 25):
            monkeypatch.setattr(wrt, "_F_CACHE", {})  # every body built here, none kept
            for q in valid_qs(p):
                space = LensSpace(p, q)
                for c in range(-1, p):
                    e0 = int(12 * p * space.dedekind) + q * (c * c + 2 * c)
                    off = 2 * (c + 1)
                    for k in range(p):
                        gp, gm = g_pm(p, q, c, k, 1), g_pm(p, q, c, k, -1)
                        expected = LaurentPoly("z", {e0 + off: gp}) - LaurentPoly("z", {e0 - off: gm})
                        got = f_poly(space, c, k).body
                        assert [(e, x, x.order) for e, x in got.terms.items()] == [
                            (e, x, x.order) for e, x in expected.terms.items()
                        ], (p, q, c, k)
                        if not got and p % 4 == 0 and c % 2 == 1:
                            empty.add(p)
        assert empty == {4, 8, 12, 16, 20, 24}

    def test_signed_body_is_the_body_times_the_sign(self, monkeypatch):
        # f_poly builds an even color's signed body from the two Gauss sums
        # itself; it must be -body term for term, in key order and coefficient
        # order, and an odd color's must be the body
        for p in range(2, 13):
            monkeypatch.setattr(wrt, "_F_CACHE", {})
            for q in valid_qs(p):
                space = LensSpace(p, q)
                for c in range(-1, p):
                    for k in range(p):
                        fp = f_poly(space, c, k)
                        want = -fp.body if c % 2 == 0 else fp.body
                        assert [(e, x, x.order) for e, x in fp.signed_body.terms.items()] == [
                            (e, x, x.order) for e, x in want.terms.items()
                        ], (p, q, c, k)
                        rebuilt = wrt.FPolynomial(p=fp.p, prefactor_sign=fp.prefactor_sign, body=fp.body)
                        assert rebuilt.signed_body == fp.signed_body and rebuilt == fp
        fp = f_poly(LensSpace(7, 3), 2, 1)  # its signed body is built and kept; a pickle keeps the fields
        copied = pickle.loads(pickle.dumps(fp))
        assert vars(copied) == vars(fp) and copied.signed_body == fp.signed_body

    def test_signed_body_is_set_at_construction(self):
        # a slot that __post_init__ fills for either sign, not a property
        # filled on first use; a copy is rebuilt from the three fields
        assert not isinstance(wrt.FPolynomial.__dict__["signed_body"], property)
        body = LaurentPoly("z", {1: 1, 3: CyclotomicNumber(5, [0, 1, 0, 0])})
        for sign in (1, -1):
            fp = wrt.FPolynomial(p=5, prefactor_sign=sign, body=body)
            assert fp.signed_body == (body if sign == 1 else -body)
            for copied in (copy.copy(fp), copy.deepcopy(fp)):
                assert vars(copied) == vars(fp) and copied.signed_body == fp.signed_body

    def test_cache_returns_identical_object(self):
        space = LensSpace(7, 2)
        assert f_poly(space, 1, 3) is f_poly(space, 1, 3)
        assert f_poly(space, 1, 10 % 7) is f_poly(space, 1, (10 + 7) % 7)

    def test_k_range_validated(self):
        space = LensSpace(7, 2)
        with pytest.raises(ValueError):
            f_poly(space, 1, 7)


class TestEvalMeridian:
    def test_mod4_vanishing(self):
        space = LensSpace(4, 1)
        for r in range(2, 41):
            assert abs(eval_meridian(space, 1, r)) < 1e-12

    def test_matches_oracle(self):
        space = LensSpace(5, 2)
        for c in range(3):
            for r in range(2, 31):
                diff = abs(eval_meridian(space, c, r, 64) - jeffrey_oracle(space, c, r, 64))
                assert diff < 1e-9

    def test_color_minus_one_vanishes(self):
        space = LensSpace(7, 3)
        assert f_poly(space, -1, 2).is_zero()
        for r in (2, 5, 11):
            assert abs(eval_meridian(space, -1, r)) < 1e-12

    def test_color_reflection(self):
        # e_(-c-2) = -e_c forces f(p,q,-c-2,k) = -f(p,q,c,k) exactly
        for p, q in ((5, 2), (9, 4)):
            space = LensSpace(p, q)
            for c in range(5):
                for k in range(p):
                    lhs = f_poly(space, -c - 2, k).signed_body
                    rhs = -f_poly(space, c, k).signed_body
                    assert lhs == rhs

    def test_level_floor_validated(self):
        space = LensSpace(5, 2)
        with pytest.raises(ValueError):
            eval_meridian(space, 0, 1)
        with pytest.raises(ValueError):
            jeffrey_oracle(space, 0, 1)


class TestFLink:
    def test_unit_vector_reduces_to_meridian(self):
        space = LensSpace(7, 3)
        for c in range(4):
            element = SkeinElement(7, [int(j == c) for j in range(4)])
            assert f_link(space, element, 2) == f_poly(space, c, 2)

    def test_conjugation_symmetry_random(self):
        rng = random.Random(5)
        for p in (2, 3, 5, 8, 9):
            space = LensSpace(p, valid_qs(p)[-1])
            element = random_skein(p, rng)
            for k in range(p):
                lhs = f_link(space, element, k).signed_body
                rhs = f_link(space, element, (p - k) % p).signed_body.conj_coeffs()
                assert lhs == rhs

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            f_link(LensSpace(5, 2), SkeinElement(7, [0, 1, 0, 0]), 0)


class TestEvalLink:
    def test_empty_link(self):
        space = LensSpace(6, 1)
        empty = SkeinElement(6, [1, 0, 0, 0])
        for r in (2, 3, 9):
            assert abs(eval_link(space, empty, r, 64) - eval_meridian(space, 0, r, 64)) < 1e-12

    def test_linearity(self):
        rng = random.Random(17)
        space = LensSpace(5, 2)
        a, b = random_skein(5, rng), random_skein(5, rng)
        for r in (2, 7, 13):
            lhs = eval_link(space, a + b, r, 64)
            rhs = eval_link(space, a, r, 64) + eval_link(space, b, r, 64)
            assert abs(lhs - rhs) < 1e-10

    def test_parallel_meridians_expand(self):
        space = LensSpace(5, 1)
        x2 = power_to_colored(5, 2)
        for r in (2, 3, 8):
            lhs = eval_link(space, x2, r, 64)
            rhs = eval_meridian(space, 2, r, 64) + eval_meridian(space, 0, r, 64)
            assert abs(lhs - rhs) < 1e-10


class TestJeffreyOracle:
    def test_matches_polynomial_route(self):
        space = LensSpace(3, 1)
        for c in (0, 1):
            for r in range(2, 31):
                diff = abs(eval_meridian(space, c, r, 64) - jeffrey_oracle(space, c, r, 64))
                assert diff < 1e-9

    def test_color_symmetries(self):
        # the underlying signed sequence is periodic of period 2r and odd
        space = LensSpace(5, 2)
        r = 7

        def raw(l):
            value = jeffrey_oracle(space, l - 1, r, 64)
            return value if (l - 1) % 2 == 0 else -value

        for l in (1, 2, 3):
            assert abs(raw(l) - raw(l + 2 * r)) < 1e-10
            assert abs(raw(-l) + raw(l)) < 1e-10

    def test_empty_link_cross_check(self):
        # c = 0 reproduces the bare lens-space invariant; only the polynomial
        # route is available as a second computation
        for p, q in ((3, 1), (5, 2), (7, 6)):
            space = LensSpace(p, q)
            for r in range(2, 21):
                diff = abs(jeffrey_oracle(space, 0, r, 64) - eval_meridian(space, 0, r, 64))
                assert diff < 1e-9

    def test_frame_keeps_the_bits_across_levels_and_precisions(self):
        # the colors of one level, then another level, another precision, another
        # space at the first level, and the first level again: each value equals
        # the memo-free route, and the frame holds one level, at most 2p roots
        # for each color asked there
        frame = wrt._oracle_frame
        assert frame.cache_info().maxsize == 1
        first, other = LensSpace(7, 3), LensSpace(7, 2)
        colors = range(-2, 6)
        for space, r, prec in ((first, 11, 53), (first, 12, 53), (first, 11, 256), (other, 11, 53), (first, 11, 53)):
            for c in colors:
                want = _expjpi_oracle(space, c, r, prec)
                assert _same_bits(jeffrey_oracle(space, c, r, prec), want), (space, c, r, prec)
            memo = frame(space, r, prec)[0]
            assert frame.cache_info().currsize == 1
            assert 0 < len(memo) <= 2 * space.p * len(colors)


class TestZCombination:
    def test_matches_link_on_a_forms(self):
        # eval_link sums colors numerically; f_link sums them exactly first
        rng = random.Random(23)
        space = LensSpace(5, 2)
        element = random_skein(5, rng, max_exp=2)
        for r in (2, 7):
            with mpmath.workprec(64):
                body = f_link(space, element, r % 5).body.eval_at_unit_root(20 * r, 64)
                exact_route = mpmath.mpc(0, 1) / mpmath.sqrt(10) * body / mpmath.sqrt(r)
            assert abs(eval_link(space, element, r, 64) - exact_route) < 1e-10

    def test_mapping_of_any_colors(self):
        space = LensSpace(7, 3)
        one = LaurentPoly("z", {0: 1})
        for r in (2, 9):
            for c in (-3, 0, 5, 9):
                assert eval_z_combination(space, {c: one}, r, 64) == eval_meridian(space, c, r, 64)

    def test_rational_function_components(self):
        rng = random.Random(24)
        space = LensSpace(5, 2)
        element = random_skein(5, rng, max_exp=2)
        comps = [poly.subst_signed_power(5, "z") for poly in element.coeffs]
        den = LaurentPoly("z", {0: 2, 3: 1})
        quotients = [RationalFunction(comp, den) for comp in comps]
        assert not all(q.is_polynomial() for q in quotients)
        for r in (2, 7):
            lhs = eval_z_combination(space, quotients, r, 64) * den.eval_at_unit_root(20 * r, 64)
            rhs = eval_z_combination(space, comps, r, 64)
            assert abs(lhs - rhs) < 1e-10


class TestPrecisionFloor:
    @pytest.mark.parametrize("call", [
        # color 1 at p = 0 mod 4 has a zero body, which never reaches embed_complex
        lambda prec: eval_meridian(LensSpace(4, 1), 1, 5, prec),
        lambda prec: eval_meridian(LensSpace(4, 1), 0, 5, prec),
        lambda prec: eval_z_combination(LensSpace(4, 1), [LaurentPoly("z")], 5, prec),
        lambda prec: jeffrey_oracle(LensSpace(4, 1), 0, 5, prec),
        lambda prec: LaurentPoly("z").eval_at_unit_root(20, prec),
        lambda prec: RationalFunction(LaurentPoly("z"), LaurentPoly("z", {0: 1})).eval_at_unit_root(20, prec),
        lambda prec: interpolate_f(LensSpace(5, 2), [(r, 0j) for r in range(2, 160) if r % 5 == 2], 2, prec),
    ], ids=["eval_meridian-zero-body", "eval_meridian", "eval_z_combination", "jeffrey_oracle",
            "LaurentPoly.eval_at_unit_root", "RationalFunction.eval_at_unit_root", "interpolate_f"])
    def test_below_53_bits_rejected(self, call):
        call(53)
        for prec in (52, 0):
            with pytest.raises(ValueError, match=f"^precision must be >= 53 bits, got {prec}$"):
                call(prec)


def _expjpi_unit(num, den):
    return mpmath.expjpi(mpmath.mpf(2 * (num % den)) / den)


def _expjpi_oracle(space, c, r, precision):
    # jeffrey_oracle as it was written on mpmath.expjpi, with no memo
    p, q, b, phi = space.p, space.q, space.b, space.phi
    l = c + 1
    with mpmath.workprec(precision):
        total = mpmath.mpc(0)
        big = 4 * r * p * q
        for n in range(1, p + 1):
            g = l + 2 * r * n
            total += _expjpi_unit((q * g + 1) ** 2, big) - _expjpi_unit((q * g - 1) ** 2, big)
        value = mpmath.mpc(0, -1) / mpmath.sqrt(2 * r * p)
        value *= _expjpi_unit(-phi, 4 * r) * _expjpi_unit(b, 4 * r * q) * total
        return -value if c % 2 == 1 else value


def _expjpi_meridian(space, c, r, precision):
    # eval_meridian with every power of z and of xi_p taken by mpmath.expjpi
    fp = f_poly(space, c, r % space.p)
    den = 4 * space.p * r
    with mpmath.workprec(precision):
        total = mpmath.mpc(0)
        for e, x in fp.body.terms.items():
            cv = mpmath.mpc(0)
            for j, n in enumerate(x._num):
                if n:
                    cf = mpmath.mpf(n) if x._den == 1 else mpmath.mpf(n) / x._den
                    cv += cf * _expjpi_unit(j, x.order)
            total += cv * _expjpi_unit(e, den)
        scale = mpmath.mpc(0, fp.prefactor_sign) / mpmath.sqrt(2 * fp.p)
        return scale * total / mpmath.sqrt(r)


def _same_bits(x, y):
    return x.real == y.real and x.imag == y.imag


class TestUnitRoot:
    @pytest.mark.parametrize("precision", [53, 64, 256, 300])
    def test_equals_expjpi_bit_for_bit(self, precision):
        rng = random.Random(precision)
        for den in (1, 2, 3, 4, 7, 8, 12, 20, 60, 97, 120, 360, 1001, 1439, 1440):
            nums = {0, 1, -1, den - 1, den, den + 1, -den, -den - 1, 3 * den + 5, -7 * den + 2}
            nums |= {rng.randint(-10 * den, 10 * den) for _ in range(8)}
            for num in sorted(nums):
                with mpmath.workprec(precision):
                    expected = _expjpi_unit(num, den)
                assert _same_bits(unit_root(num, den, precision), expected), (num, den, precision)

    def test_denominator_below_one_rejected(self):
        calls = [
            lambda den: unit_root(1, den, 53),
            lambda den: LaurentPoly("z", {1: 1}).eval_at_unit_root(den),
            lambda den: LaurentPoly("z").eval_at_unit_root(den),
            lambda den: RationalFunction(LaurentPoly("z", {1: 1}), LaurentPoly("z", {0: 2})).eval_at_unit_root(den),
        ]
        for call in calls:
            call(1)
            for den in (0, -1, -20):
                with pytest.raises(ValueError, match=f"^denominator must be >= 1, got {den}$"):
                    call(den)

    def test_oracle_and_meridian_equal_the_expjpi_route(self):
        # a sample of criterion 3's domain (p <= 10, r = 2..40, 64 bits), then high levels
        rng = random.Random(3)
        cases = []
        for p in range(2, 11):
            for q in valid_qs(p):
                for c in range(p // 2 + 1):
                    cases += [(p, q, c, r, 64) for r in rng.sample(range(2, 41), 2)]
        for p, q in ((3, 1), (5, 2), (7, 3), (10, 3)):
            for c in range(p // 2 + 1):
                cases += [(p, q, c, r, prec) for r in (1000, 4321, 10000) for prec in (53, 256)]
        for p, q, c, r, prec in cases:
            space = LensSpace(p, q)
            assert _same_bits(jeffrey_oracle(space, c, r, prec), _expjpi_oracle(space, c, r, prec)), (p, q, c, r, prec)
            assert _same_bits(eval_meridian(space, c, r, prec), _expjpi_meridian(space, c, r, prec)), (p, q, c, r, prec)


def _expjpi_embed(x):
    # embed_complex as a plain mpc sum, rationals included: one expjpi per nonzero coefficient
    total = mpmath.mpc(0)
    for j, n in enumerate(x._num):
        if n:
            cf = mpmath.mpf(n) if x._den == 1 else mpmath.mpf(n) / x._den
            total += cf * _expjpi_unit(j, x.order)
    return total


def _expjpi_value(f, den):
    # a LaurentPoly or RationalFunction at e^(2 pi i / den), on mpc values under the caller's workprec
    if isinstance(f, RationalFunction):
        value = _expjpi_value(f.num, den)
        if not f.is_polynomial():
            value /= _expjpi_value(f.den, den)
        return value
    total = mpmath.mpc(0)
    for e, x in f.terms.items():
        total += _expjpi_embed(x) * _expjpi_unit(e, den)
    return total


def _expjpi_combination(space, components, r, precision):
    # eval_z_combination on mpc values, each meridian by _expjpi_meridian
    items = components.items() if isinstance(components, dict) else enumerate(components)
    with mpmath.workprec(precision):
        total = mpmath.mpc(0)
        for c, comp in items:
            if not comp.is_zero():
                total += _expjpi_value(comp, 4 * space.p * r) * _expjpi_meridian(space, c, r, precision)
        return total


def _coefficient(rng, order, top):
    # a value of Q(xi_order) with coefficients n/d, |n| <= top, 2 <= d <= top; at top = 10**30
    # they round at every precision tested
    return CyclotomicNumber(order, [Fraction(rng.randint(-top, top), rng.randint(2, top)) for _ in range(order)])


class TestCombinationBits:
    """Evaluations that combine values, bit for bit against the same sums on mpc values."""

    @pytest.mark.parametrize("precision", [53, 64, 256])
    def test_laurent_and_rational_values_equal_the_mpc_route(self, precision):
        rng = random.Random(precision)
        for order in (1, 2, 5, 12):
            num = LaurentPoly("z", {e: _coefficient(rng, order, 10**30) for e in range(-4, 5)})
            den = LaurentPoly("z", {e: _coefficient(rng, order, 9) for e in range(3)})
            f = RationalFunction(num, den)
            assert not f.is_polynomial() and f.den.coeff(0).denominator != 1
            for n in (1, 2, 7, 20, 97, 1440):
                with mpmath.workprec(precision):
                    want_num, want = _expjpi_value(num, n), _expjpi_value(f, n)
                assert _same_bits(num.eval_at_unit_root(n, precision), want_num), (order, n)
                assert _same_bits(f.eval_at_unit_root(n, precision), want), (order, n)

    @pytest.mark.parametrize("precision", [53, 64, 256])
    def test_combinations_and_links_equal_the_mpc_route(self, precision):
        rng = random.Random(precision)
        combinations = [(LensSpace(9, q), list(kernel(LensSpace(9, q))[0])) for q in (1, 4)]
        den = LaurentPoly("z", {-1: _coefficient(rng, 5, 9), 0: 2, 3: 1})
        for p, q in ((5, 2), (7, 3)):
            comps = [poly.subst_signed_power(p, "z") for poly in random_skein(p, rng, max_exp=3).coeffs]
            combinations.append((LensSpace(p, q), comps))
            combinations.append((LensSpace(p, q), {c - 2: RationalFunction(v, den) for c, v in enumerate(comps)}))
        for r in (2, 3, 17, 40, 1234):
            for space, comps in combinations:
                got = eval_z_combination(space, comps, r, precision)
                assert _same_bits(got, _expjpi_combination(space, comps, r, precision)), (space, r)
            for p, q in ((5, 2), (6, 1)):
                element = random_skein(p, rng)
                comps = [poly.subst_signed_power(p, "z") for poly in element.coeffs]
                got = eval_link(LensSpace(p, q), element, r, precision)
                assert _same_bits(got, _expjpi_combination(LensSpace(p, q), comps, r, precision)), (p, q, r)


class TestVanishingDenominator:
    def test_rational_function_value(self):
        f = RationalFunction(LaurentPoly("z", {0: 1}), LaurentPoly("z", {4: 1, 0: -1}))
        f.eval_at_unit_root(5)
        with pytest.raises(ValueError, match=r"^denominator \(-1\) \+ \(1\)\*z\^4 vanishes at e\^\(2 pi i / 4\)$"):
            f.eval_at_unit_root(4)

    def test_z_combination(self):
        for r in (2, 3, 10):
            comp = RationalFunction(LaurentPoly("z", {0: 1}), LaurentPoly("z", {12 * r: 1, 0: -1}))
            with pytest.raises(ValueError, match=rf"^denominator .* vanishes at e\^\(2 pi i / {12 * r}\)$"):
                eval_z_combination(LensSpace(3, 1), [comp], r, 53)


def test_expjpi_is_called_only_in_cyclotomic():
    # one root-of-unity evaluator: cyclotomic.unit_root; no other module reaches
    # mpmath's expjpi or expj, or the libmp cos/sin that unit_root calls
    names = {"expjpi", "expj", "mpf_cos_sin_pi", "mpf_cos_sin"}
    users = set()
    for path in pathlib.Path(lenswrt.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in names:
                users.add(path.name)
    assert users <= {"cyclotomic.py"}, sorted(users)
