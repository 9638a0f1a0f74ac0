"""Exact cyclotomic arithmetic: canonical forms, conjugation, embedding, and
the rational traffic, int row products and int normalization of the exact
queries."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from lenswrt import analysis, cyclotomic, selftest, wrt
from lenswrt.analysis import build_f_matrix, fullrank_submatrix, kernel, rank, recover_skein
from lenswrt.cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    embed_complex,
    root_of_unity,
)
from lenswrt.gauss import GaussSumSpec, _tabled_sum, gauss_sum
from lenswrt.laurent import LaurentPoly
from lenswrt.skein import SkeinElement
from lenswrt.wrt import LensSpace, f_link


class TestCyclotomicPolynomials:
    def test_small_orders(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_degree_is_euler_phi(self):
        def phi(n):
            return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

        for n in range(1, 40):
            assert len(cyclotomic_polynomial(n)) - 1 == phi(n)


class TestRootOfUnity:
    def test_basics(self):
        assert root_of_unity(4, 2) == -1
        for n in (1, 2, 5, 12):
            assert root_of_unity(n, 0) == 1
        assert root_of_unity(3, 1) + root_of_unity(3, 2) == -1

    def test_exponent_mod_order(self):
        assert root_of_unity(5, 7) == root_of_unity(5, 2)
        assert root_of_unity(5, -1) == root_of_unity(5, 4)


class TestArithmetic:
    def test_inverse_roots_multiply_to_one(self):
        assert root_of_unity(5, 1) * root_of_unity(5, 4) == 1

    def test_geometric_sum_vanishes(self):
        total = sum((root_of_unity(7, j) for j in range(7)), CyclotomicNumber.zero())
        assert total.is_zero()

    def test_expansion_by_hand(self):
        # (1 + xi_8)(1 + xi_8^-1) = 2 + xi_8 + xi_8^7
        x = 1 + root_of_unity(8, 1)
        y = 1 + root_of_unity(8, -1)
        assert x * y == 2 + root_of_unity(8, 1) + root_of_unity(8, 7)

    def test_ring_axioms_random(self):
        rng = random.Random(42)

        def rand_elem(order):
            vec = [rng.randint(-3, 3) for _ in range(order)]
            return CyclotomicNumber(order, vec)

        for _ in range(40):
            order = rng.choice([2, 3, 4, 6, 8, 9, 12])
            a, b, c = rand_elem(order), rand_elem(order), rand_elem(order)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)

    def test_mixed_order_lift(self):
        # xi_6 equals -xi_3^2 and the canonical forms agree at the lcm order
        x = root_of_unity(6, 1)
        y = -root_of_unity(3, 2)
        assert x == y
        assert x.coeffs == y.lift(6).coeffs

    def test_division(self):
        rng = random.Random(7)
        for _ in range(20):
            order = rng.choice([3, 5, 7, 8, 9])
            vec = [rng.randint(-2, 2) for _ in range(order)]
            x = CyclotomicNumber(order, vec)
            if x.is_zero():
                continue
            assert x * x.inverse() == 1
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber.zero(5).inverse()

    def test_inverse_is_kept_and_failure_is_not(self):
        zero = CyclotomicNumber.zero(7)
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                zero.inverse()
        x = CyclotomicNumber(105, [1, -2, 0, 3, 0, 0, 0, 1])
        first = x.inverse()
        assert x.inverse() == first and x * first == 1

    def test_lift_refuses_an_order_below_one(self):
        for x, order in ((CyclotomicNumber(1, [3]), -1), (CyclotomicNumber(1, [3]), 0),
                         (root_of_unity(5, 2), 0), (root_of_unity(5, 2), -5)):
            with pytest.raises(ValueError, match=f"order must be >= 1, got {order}"):
                x.lift(order)


class TestConjugation:
    def test_roots(self):
        for n in (3, 5, 8, 12):
            for e in range(n):
                assert root_of_unity(n, e).conjugate() == root_of_unity(n, n - e)

    def test_rational_fixed(self):
        x = CyclotomicNumber.from_rational(Fraction(3, 7), 5)
        assert x.conjugate() == x

    def test_gauss_sum_conjugate(self):
        lhs = gauss_sum(GaussSumSpec(5, 1, 1)).conjugate()
        rhs = gauss_sum(GaussSumSpec(5, -1, -1))
        assert lhs == rhs

    def test_involution_and_ring_map(self):
        rng = random.Random(3)
        for _ in range(20):
            order = rng.choice([5, 8, 9, 12])
            a = CyclotomicNumber(order, [rng.randint(-3, 3) for _ in range(order)])
            b = CyclotomicNumber(order, [rng.randint(-3, 3) for _ in range(order)])
            assert a.conjugate().conjugate() == a
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()


class TestEmbedding:
    def test_simple_values(self):
        assert abs(embed_complex(CyclotomicNumber.from_rational(-1)) - (-1)) < 1e-15
        assert abs(embed_complex(root_of_unity(4, 1)) - mpmath.mpc(0, 1)) < 1e-15

    def test_quadratic_gauss_sum_magnitude(self):
        value = embed_complex(gauss_sum(GaussSumSpec(5, 1, 0)), 64)
        assert abs(abs(value) ** 2 - 5) < 1e-12

    def test_ring_homomorphism_up_to_tolerance(self):
        # 105: the first order whose Phi_N has a coefficient other than +-1
        rng = random.Random(11)
        for order in [12, 30, 90, 105, 180, 360] * 2:
            a = CyclotomicNumber(order, [rng.randint(-2, 2) for _ in range(order)])
            b = CyclotomicNumber(order, [rng.randint(-2, 2) for _ in range(order)])
            lhs = embed_complex(a * b, 53)
            rhs = embed_complex(a, 53) * embed_complex(b, 53)
            assert abs(lhs - rhs) < 1e-10

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            embed_complex(root_of_unity(3, 1), 10)

    def test_embedding_cache_is_bounded_and_keeps_the_uncached_sums(self):
        # every Gauss-table key of order <= 30, read twice at two precisions:
        # an irrational sum is read back from the cache, a rational one never
        # enters it, and both reads equal the uncached sum
        embedded = cyclotomic._embedded
        assert embedded.cache_info().maxsize == 256
        for p in range(2, 31):
            for a in range(p):
                for b in range(p):
                    x = _tabled_sum(p, a, b)
                    for precision in (53, 256):
                        want = embedded.__wrapped__(x.order, x._num, x._den, precision)
                        before = embedded.cache_info()
                        assert cyclotomic._embed_parts(x, precision) == want, (p, a, b, precision)
                        assert cyclotomic._embed_parts(x, precision) == want, (p, a, b, precision)
                        after = embedded.cache_info()
                        if any(x._num[1:]):
                            assert after.hits > before.hits, (p, a, b, precision)
                        else:
                            assert (after.hits, after.misses) == (before.hits, before.misses), (p, a, b)
        assert embedded.cache_info().currsize <= 256


class TestValueSemantics:
    def test_equal_values_equal_hashes(self):
        pairs = [
            (root_of_unity(6, 1), -root_of_unity(3, 2)),
            (CyclotomicNumber.from_rational(2, 5), CyclotomicNumber.from_rational(2, 7)),
            (root_of_unity(4, 2), CyclotomicNumber.from_rational(-1)),
        ]
        for x, y in pairs:
            assert x == y
            assert hash(x) == hash(y)

    def test_rational_detection(self):
        x = root_of_unity(5, 1) + root_of_unity(5, 2) + root_of_unity(5, 3) + root_of_unity(5, 4)
        assert x.is_rational() and x == -1
        assert not root_of_unity(5, 1).is_rational()

    def test_galois_action(self):
        for n, a in ((7, 2), (9, 2), (12, 5)):
            for e in range(n):
                assert root_of_unity(n, e).galois(a) == root_of_unity(n, a * e)
        x = root_of_unity(9, 1) + 3 * root_of_unity(9, 4)
        assert x.galois(2).galois(5) == x.galois(10)  # composition multiplies exponents
        with pytest.raises(ValueError):
            root_of_unity(9, 1).galois(3)


class TestRationalTraffic:
    """The kernel of the f-matrix is rational, so the exact queries never
    multiply two irrational numbers (no _convolve) and never invert one.
    The f-matrix's type carries its Galois action, so they image no
    cyclotomic number mod l and refine only int rows: M's cyclotomic rows
    are read only to be descended."""

    @pytest.fixture(autouse=True)
    def guard(self, monkeypatch):
        def convolve(a, b):
            raise AssertionError("a product of two irrational numbers")

        plain_inverse = CyclotomicNumber.inverse

        def inverse(x):
            if not x.is_rational():
                raise AssertionError(f"the inverse of the irrational {x!r}")
            return plain_inverse(x)

        def image_mod(x, prime, root):
            raise AssertionError(f"the image mod l of the cyclotomic {x!r}")

        refine = analysis._refined

        def int_rows_refined(rows, selection):
            if not all(isinstance(c, int) for row in rows for entry in row for c in entry.values()):
                raise AssertionError("a refinement over Q(xi_p)")
            return refine(rows, selection)

        monkeypatch.setattr(cyclotomic, "_convolve", convolve)
        monkeypatch.setattr(CyclotomicNumber, "inverse", inverse)
        monkeypatch.setattr(CyclotomicNumber, "image_mod", image_mod)
        monkeypatch.setattr(analysis, "_refined", int_rows_refined)
        monkeypatch.setattr(wrt, "_F_CACHE", {})  # every f-polynomial built under the guard

    @pytest.mark.parametrize("p, q", [(9, 1), (15, 2), (16, 3), (21, 2)])
    def test_rank_and_kernel(self, p, q):
        space = LensSpace(p, q)
        assert rank(build_f_matrix(space)) + len(kernel(space)) == p // 2 + 1

    @pytest.mark.parametrize("p, q", [(7, 3), (11, 1), (14, 5)])
    def test_recover_skein(self, p, q):
        rng = random.Random(p)
        element = SkeinElement(p, [LaurentPoly("A", {e: rng.randint(-4, 4) for e in range(-3, 4)})
                                   for _ in range(p // 2 + 1)])
        space = LensSpace(p, q)
        polys = [f_link(space, element, k).signed_body for k in range(p)]
        assert recover_skein(space, polys).a_form == element

    @pytest.mark.parametrize("p, q", [(13, 2), (26, 3)])
    def test_fullrank_submatrix(self, p, q):
        assert fullrank_submatrix(LensSpace(p, q)).nonzero

    @pytest.mark.parametrize("number", [7, 8, 9, 10])
    def test_selftest_criterion(self, number):
        ok, detail = next(fn for n, _, fn in selftest.CRITERIA if n == number)()
        assert ok, detail


class TestIntRowProducts(TestRationalTraffic):
    """The same queries: on f-matrices the cyclotomic rows are read only by
    the descent (analysis._descended), so every row that _row_times
    multiplies, in back-substitution or refutation, is an int row."""

    @pytest.fixture(autouse=True)
    def guard(self, monkeypatch):
        row_times = analysis._row_times

        def int_rows_only(row, x):
            if not all(isinstance(c, int) for entry in row for c in entry.values()):
                raise AssertionError("a row product on a cyclotomic row")
            return row_times(row, x)

        monkeypatch.setattr(analysis, "_row_times", int_rows_only)


class TestIntNormalization(TestRationalTraffic):
    """The same queries: every kernel vector they normalize is an int vector
    whose content laurent.terms_gcd proves, so analysis never runs Euclid
    (laurent_gcd) through CyclotomicNumber."""

    @pytest.fixture(autouse=True)
    def guard(self, monkeypatch):
        def laurent_gcd(a, b):
            raise AssertionError("a kernel vector normalized by Euclid")

        monkeypatch.setattr(analysis, "laurent_gcd", laurent_gcd)
