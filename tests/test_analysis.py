"""Exact rank/kernel computations, certificates, recovery, and the
ordinary-lattice membership decision."""

import functools
import hashlib
import math
import pickle
import random
import re
from fractions import Fraction

import mpmath
import pytest

from lenswrt import analysis, modular, selftest
from lenswrt.analysis import (
    LaurentMatrix,
    RationalFunctionVector,
    build_f_matrix,
    fullrank_submatrix,
    hat_c,
    interpolate_f,
    kernel,
    lambda_membership,
    rank,
    recover_skein,
)
from lenswrt.cyclotomic import CyclotomicNumber, embed_complex, root_of_unity
from lenswrt.errors import (
    BadConditioning,
    Inconsistent,
    RankDeficient,
    UnderDetermined,
    UnsupportedOrder,
)
from lenswrt.gauss import GaussSumSpec, g_pm, gauss_sum
from lenswrt.laurent import LaurentPoly, RationalFunction
from lenswrt.numtheory import OrderClass, classify_order, count_squares_mod, is_prime, mod_inverse
from lenswrt.skein import SkeinElement
from lenswrt.wrt import LensSpace, eval_z_combination, f_link, f_poly, jeffrey_oracle


def z(terms):
    return LaurentPoly("z", terms)


KERNEL_9_1 = (z({}), z({15: -1, 27: 1}), z({12: 1, 24: -1}), z({15: -1}), z({0: 1}))
KERNEL_9_4 = (z({84: -1, 108: 1}), z({}), z({60: 1, 72: -1}), z({30: -1}), z({0: 1}))


def valid_qs(p):
    return [q for q in range(1, p) if math.gcd(p, q) == 1]


def random_skein(p, rng, max_exp=3, bound=4):
    return SkeinElement(
        p,
        [
            LaurentPoly("A", {e: rng.randint(-bound, bound) for e in range(-max_exp, max_exp + 1)})
            for _ in range(p // 2 + 1)
        ],
    )


class TestMatrixStructure:
    def test_shape(self):
        matrix = build_f_matrix(LensSpace(7, 2))
        assert matrix.nrows == 7
        assert matrix.ncols == 4

    def test_mod4_zero_column(self):
        matrix = build_f_matrix(LensSpace(4, 1))
        assert all(matrix.entries[k][1].is_zero() for k in range(4))

    def test_row_conjugation_structure(self):
        matrix = build_f_matrix(LensSpace(5, 2))
        for k in range(5):
            for c in range(3):
                lhs = matrix.entries[k][c]
                rhs = matrix.entries[(5 - k) % 5][c].conj_coeffs()
                assert lhs == rhs

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="lengths 2 and 1"):
            LaurentMatrix(((z({0: 1}), z({1: 1})), (z({0: 1}),)))

    def test_entry_must_be_a_laurent_poly(self):
        with pytest.raises(ValueError, match="not a LaurentPoly"):
            LaurentMatrix(((z({0: 1}), 1),))

    def test_entry_in_another_variable_rejected(self):
        # the elimination runs on term dicts, which carry no variable
        a_one = LaurentPoly("A", {0: 1})
        with pytest.raises(ValueError, match="in A, not z"):
            LaurentMatrix(((a_one, z({1: 1})),))
        with pytest.raises(ValueError, match="in A, not z"):
            recover_skein(LensSpace(3, 1), [a_one] * 3)
        # a zero entry has no variable to mismatch
        assert rank(LaurentMatrix(((LaurentPoly("A"), z({1: 1})),))) == 1


class TestRank:
    def test_full_rank_samples(self):
        for p, q in ((2, 1), (3, 2), (5, 3), (6, 1), (7, 4), (10, 7)):
            assert rank(build_f_matrix(LensSpace(p, q))) == 1 + p // 2

    def test_deficient_samples(self):
        for p, q in ((4, 3), (8, 5), (12, 5), (15, 4)):
            r = rank(build_f_matrix(LensSpace(p, q)))
            assert r < 1 + p // 2
            assert r <= 1 + count_squares_mod(p)

    def test_rank_is_the_number_of_squares(self):
        # rank M(p,q) = #squares mod p, with equality, at all 277 spaces
        # with p <= 30; criterion 6 checks only the paper's bound
        ranks = {(p, q): rank(build_f_matrix(LensSpace(p, q))) for p in range(2, 31) for q in valid_qs(p)}
        assert len(ranks) == 277
        assert {key: r for key, r in ranks.items() if r != count_squares_mod(key[0])} == {}

    def test_order_nine(self):
        assert rank(build_f_matrix(LensSpace(9, 1))) == 4
        assert rank(build_f_matrix(LensSpace(9, 4))) == 4

    def test_empty_matrix(self):
        assert rank(LaurentMatrix(())) == 0

    def test_rank_tracks_classification_extended(self):
        from lenswrt.numtheory import OrderClass, classify_order

        for p, q in ((17, 2), (18, 5), (20, 3)):
            full = rank(build_f_matrix(LensSpace(p, q))) == 1 + p // 2
            assert full == (classify_order(p) is OrderClass.DETERMINING)


class TestKernel:
    def test_known_generators(self):
        for q, target in ((1, KERNEL_9_1), (4, KERNEL_9_4)):
            basis = kernel(LensSpace(9, q))
            assert len(basis) == 1
            assert basis[0].same_line(target)
            # our normalization reproduces the printed vectors on the nose
            assert basis[0].components == target

    def test_prime_order_kernel_empty(self):
        assert kernel(LensSpace(5, 1)) == []

    def test_kernel_annihilates_matrix_exactly(self):
        for q in (1, 4):
            space = LensSpace(9, q)
            matrix = build_f_matrix(space)
            vec = kernel(space)[0]
            for k in range(9):
                total = LaurentPoly("z")
                for c in range(5):
                    total = total + matrix.entries[k][c] * vec.components[c]
                assert total.is_zero()

    def test_kernel_annihilates_invariants_numerically(self):
        for q in (1, 4):
            space = LensSpace(9, q)
            vec = kernel(space)[0]
            for r in range(2, 41):
                assert abs(eval_z_combination(space, list(vec), r, 64)) < 1e-10

    def test_mod4_kernel_contains_unit_direction(self):
        basis = kernel(LensSpace(4, 1))
        mu1 = (z({}), z({0: 1}), z({}))
        assert any(vec.same_line(mu1) for vec in basis)

    def test_zero_vector_is_on_no_line(self):
        nil = (z({}),) * 3
        vec = RationalFunctionVector((z({}), z({0: 1}), z({2: 3})))
        assert not vec.same_line(nil)
        assert not RationalFunctionVector(nil).same_line(vec)
        assert RationalFunctionVector(nil).same_line(nil)

    def test_higher_dimensional_kernels_annihilate_exactly(self):
        for p, q in ((8, 3), (12, 5), (16, 3)):
            space = LensSpace(p, q)
            matrix = build_f_matrix(space)
            basis = kernel(space)
            assert len(basis) == matrix.ncols - rank(matrix)
            for vec in basis:
                for k in range(p):
                    total = LaurentPoly("z")
                    for c in range(matrix.ncols):
                        total = total + matrix.entries[k][c] * vec.components[c]
                    assert total.is_zero(), (p, q, k)


def annihilates(matrix, vec):
    for row in matrix.entries:
        total = LaurentPoly("z")
        for entry, comp in zip(row, vec.components):
            total = total + entry * comp
        if not total.is_zero():
            return False
    return True


# bound at import, so that the refinements spy does not count reference calls
refined = analysis._refined


@functools.cache
def all_rows_kernel(p, q):
    """The reference kernel: elimination over Q(xi_p)(z) on every row, with
    no image and no descent; computed once per (p, q) and shared.  With
    every row selected, no row can refute it.  Its matrix is assembled from
    f_poly, not read from the memo of build_f_matrix."""
    space = LensSpace(p, q)
    matrix = LaurentMatrix(tuple(tuple(f_poly(space, c, k).signed_body for c in range(p // 2 + 1)) for k in range(p)))
    return tuple(refined(term_rows(matrix), range(p)))


def term_rows(matrix):
    """The matrix as rows of term dicts, as analysis._certified converts an
    integral matrix."""
    return [[entry.terms for entry in row] for row in matrix.entries]


def integral(rows):
    """Whether every coefficient of rows of term dicts, as _bareiss_echelon
    eliminates them, is an int."""
    return all(type(c) is int for row in rows for entry in row for c in entry.values())


def refinements(monkeypatch):
    """Record, per call of analysis._refined, whether it ran on the descended
    int rows; the f-matrices are built afresh, with no kernel basis that a
    rank before the spy proved."""
    seen = []
    refine = analysis._refined
    monkeypatch.setattr(analysis, "_F_MATRICES", {})

    def spy(rows, selection):
        seen.append(integral(rows))
        return refine(rows, selection)

    monkeypatch.setattr(analysis, "_refined", spy)
    return seen


def untabled_image_pivot_rows(rows, n):
    """The pivot rows of the image in F_l with a pow per root and per term
    and a Horner value reduced at every step."""
    ell, omega, t = modular._modulus(n)

    def residue(c) -> int:
        if isinstance(c, int):
            return c
        root, value = pow(omega, n // c.order, ell), 0
        for v in reversed(c.coeffs):  # integral: the row is scaled
            value = (value * root + v) % ell
        return value

    def image(row) -> list[int]:
        scale = math.lcm(*(c.denominator for entry in row for c in entry.values()))
        return [
            sum(residue(c * scale if scale != 1 else c) * pow(t, e, ell) for e, c in entry.items()) % ell
            for entry in row
        ]

    remaining = {k: image(row) for k, row in enumerate(rows)}
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
            if f:
                remaining[k] = [(a - f * b) % ell for a, b in zip(row, pivot_row)]
    return sorted(chosen)


class TestCertifiedPivots:
    """rank, kernel and recover_skein eliminate only on the pivot rows of a
    mod-l image and prove the answer on every row they were given; a row
    that an answer fails joins the selection.  An f-matrix gives its
    descended rows, over Q(z); any other LaurentMatrix its own rows, over
    Q(xi_p)(z).  With every row selected they eliminate on all rows."""

    @staticmethod
    def all_rows(monkeypatch, fn, *args):
        # eliminate on every row: no image, so no full-column-rank shortcut;
        # fresh f-matrices, so no kernel basis that rank proved is read
        ran = []

        def slow(mat):
            ran.append(mat)
            return refined(term_rows(mat), range(mat.nrows))

        with monkeypatch.context() as m:
            m.setattr(analysis, "_certified", slow)
            m.setattr(analysis, "_F_MATRICES", {})
            try:
                return fn(*args)
            finally:
                assert ran, "the all-rows elimination never ran"

    def test_rank_and_kernel_match_all_rows(self, monkeypatch):
        seen = refinements(monkeypatch)
        for p in range(2, 17):
            for q in valid_qs(p):
                space = LensSpace(p, q)
                matrix = build_f_matrix(space)
                expected = all_rows_kernel(p, q)
                assert rank(matrix) == matrix.ncols - len(expected), (p, q)
                assert tuple(kernel(space)) == expected, (p, q)
        assert seen and all(seen)  # the descended rows answered every query

    def test_zero_columns_ride_the_image_bound(self, monkeypatch):
        # p = 0 mod 4: every odd color is a zero column; when the image pivot
        # rows of the descended rows account for every other column, the
        # unit vectors e_c are proven by the image alone, with no refinement
        def forbidden(*args):
            raise AssertionError("the image bound alone proves this kernel")

        monkeypatch.setattr(analysis, "_refined", forbidden)
        for p, q in ((12, 5), (20, 13), (68, 3)):
            ncols = p // 2 + 1
            units = [tuple(z({0: 1} if j == c else {}) for j in range(ncols)) for c in range(1, ncols, 2)]
            assert [vec.components for vec in kernel(LensSpace(p, q))] == units, (p, q)

    def test_modulus_is_a_ring_map_target(self):
        # xi_n -> omega is a ring map Z[xi_n] -> F_l only when omega has
        # exact order n in F_l, which needs l prime and l = 1 (mod n)
        for n in range(1, 101):
            ell, omega, t = modular._modulus(n)
            assert is_prime(ell) and (ell - 1) % n == 0 and ell > 2**62, n
            assert pow(omega, n, ell) == 1, n
            primes = [f for f in range(2, n + 1) if n % f == 0 and is_prime(f)]
            assert all(pow(omega, n // f, ell) != 1 for f in primes), n
            assert 0 < t < ell, n

    def test_image_pivot_rows_equal_the_untabled_image(self):
        # the image tables omega^(n/order) and t^e and reduces each Horner
        # value once; it must select what a pow per root and per term and a
        # reduction at every Horner step select, on the f-matrix, on its
        # descended int rows, and on rows with rational factors and orders
        # p and 2p mixed
        rng = random.Random(31)
        for p in range(2, 31):
            for q in valid_qs(p)[:2]:
                matrix = build_f_matrix(LensSpace(p, q))
                rows = term_rows(matrix)
                scaled = [[{e: c * Fraction(rng.randint(1, 6), rng.randint(1, 6)) for e, c in entry.items()}
                           for entry in row] for row in rows]
                mixed = [[{e: c.lift(2 * p) if (k + e) % 2 else c for e, c in entry.items()} for entry in row]
                         for k, row in enumerate(scaled)]
                for case, n in ((rows, p), (analysis._descended(matrix), p), (scaled, p), (mixed, 2 * p)):
                    assert analysis._image_pivot_rows(case, n) == untabled_image_pivot_rows(case, n), (p, q, n)

    def test_recover_matches_all_rows(self, monkeypatch):
        rng = random.Random(7)
        for p, q in ((5, 2), (7, 3), (10, 3)):
            space = LensSpace(p, q)
            element = random_skein(p, rng, max_exp=2)
            polys = [f_link(space, element, k).signed_body for k in range(p)]
            fast = recover_skein(space, polys)
            slow = self.all_rows(monkeypatch, recover_skein, space, polys)
            assert fast.z_components == slow.z_components
            assert fast.a_form == element

    def test_rational_solution(self, monkeypatch):
        # the f-matrix's solutions are Laurent polynomials; a stand-in matrix
        # reaches the coordinate that only a rational function can hold
        d = z({0: 1, 1: 1})
        matrix = LaurentMatrix(((d, z({})), (z({}), z({0: 1}))))
        monkeypatch.setattr(analysis, "build_f_matrix", lambda space: matrix)
        polys = [z({0: 1}), z({})]
        fast = recover_skein(LensSpace(2, 1), polys)
        slow = self.all_rows(monkeypatch, recover_skein, LensSpace(2, 1), polys)
        assert fast.z_components == slow.z_components
        assert fast.z_components == (RationalFunction(z({0: 1}), d), RationalFunction(z({})))
        assert fast.a_form is None

    def test_wrong_selection_rejected(self, monkeypatch):
        calls = []
        find = analysis._image_pivot_rows

        def drop_a_row(rows, n, stop=None):  # the full image, one row short: it ignores rank's stop
            calls.append(rows)
            return find(rows, n)[:-1]

        check = analysis._refuting_row
        for p, q in ((9, 1), (7, 2)):
            space = LensSpace(p, q)
            matrix = build_f_matrix(space)
            rows = term_rows(matrix)
            wrong = drop_a_row(rows, p)  # every coefficient of the f-matrix has order p
            expected = all_rows_kernel(p, q)
            verdicts = []
            with monkeypatch.context() as m:
                m.setattr(analysis, "_refuting_row", lambda mat, vec: verdicts.append(check(mat, vec)) or verdicts[-1])
                assert tuple(refined(rows, wrong)) == expected
            refuting = next((k for k in verdicts if k is not None), None)
            assert refuting is not None and refuting not in wrong
            with monkeypatch.context() as m:
                m.setattr(analysis, "_image_pivot_rows", drop_a_row)
                calls.clear()
                assert tuple(kernel(space)) == expected
                # the memo's matrix keeps kernel's proof, so rank asks a
                # fresh, unmemoized f-matrix, which it proves again
                fresh = analysis._FMatrix(space)
                assert rank(fresh) == fresh.ncols - len(expected)
                # one image per proof, of the descended int rows; M's own
                # cyclotomic rows are never imaged
                assert len(calls) == 2
                assert all(integral(rows) for rows in calls)

    def test_wrong_selection_rejected_in_recover(self, monkeypatch):
        space = LensSpace(5, 2)
        element = random_skein(5, random.Random(3))
        polys = [f_link(space, element, k).signed_body for k in range(5)]
        find = analysis._image_pivot_rows
        monkeypatch.setattr(analysis, "_image_pivot_rows", lambda rows, n, stop=None: find(rows, n)[:-1])
        assert recover_skein(space, polys).a_form == element

    def test_refuted_rows_join_the_selection(self, monkeypatch):
        find = analysis._image_pivot_rows
        shortened = {"empty": lambda rows, n, stop=None: [], "one short": lambda rows, n, stop=None: find(rows, n)[:-1]}
        rng = random.Random(11)
        for p in range(2, 13):
            for q in valid_qs(p):
                space = LensSpace(p, q)
                matrix = build_f_matrix(space)
                expected = all_rows_kernel(p, q)
                if expected:
                    polys = [LaurentPoly("z")] * p
                else:
                    element = random_skein(p, rng, max_exp=1, bound=2)
                    polys = [f_link(space, element, k).signed_body for k in range(p)]
                    solution = self.all_rows(monkeypatch, recover_skein, space, polys)
                    assert solution.a_form == element, (p, q)
                for name, shorten in shortened.items():
                    with monkeypatch.context() as m:
                        m.setattr(analysis, "_image_pivot_rows", shorten)
                        assert tuple(kernel(space)) == expected, (name, p, q)
                        assert rank(matrix) == matrix.ncols - len(expected), (name, p, q)
                        if expected:
                            with pytest.raises(RankDeficient):
                                recover_skein(space, polys)
                        else:
                            assert recover_skein(space, polys).z_components == solution.z_components

    @pytest.mark.parametrize("p, q", [(12, 5), (16, 3), (20, 3)])
    def test_zero_columns_skip_the_elimination(self, monkeypatch, p, q):
        # a free column that is zero in every row gets e_f, proven by that
        # scan; only the other free columns are back-substituted
        space, expected = LensSpace(p, q), all_rows_kernel(p, q)
        rows = analysis._descended(analysis._FMatrix(space))
        zero = {c for c in range(p // 2 + 1) if not any(row[c] for row in rows)}
        solved = []  # the free column of each back-substituted vector: x arrives with D there alone
        substitute, find = analysis._back_substitute, analysis._image_pivot_rows
        monkeypatch.setattr(analysis, "_back_substitute",
                            lambda rows, pivots, x: solved.append(next(c for c, t in enumerate(x) if t))
                            or substitute(rows, pivots, x))
        monkeypatch.setattr(analysis, "_image_pivot_rows", lambda rows, n, stop=None: find(rows, n)[:-1])
        monkeypatch.setattr(analysis, "_F_MATRICES", {})
        assert tuple(kernel(space)) == expected
        assert zero and solved and not zero & set(solved), (zero, solved)

    def test_one_image_prime_for_every_order(self, monkeypatch):
        # the descended rows are int, so every order's image is taken mod
        # the one prime of _modulus(1)
        searched = []
        find = modular._modulus
        monkeypatch.setattr(modular, "_modulus", lambda n, index=0: searched.append(n) or find(n, index))
        monkeypatch.setattr(analysis, "_F_MATRICES", {})
        for p in range(7, 31):
            space = LensSpace(p, first_q(p))
            assert rank(analysis._FMatrix(space)) + len(kernel(space)) == p // 2 + 1, p
            element = random_skein(p, random.Random(p), max_exp=1, bound=2)
            solution = outcome(recover_skein, space, [f_link(space, element, k).signed_body for k in range(p)])
            assert solution is RankDeficient if kernel(space) else solution.a_form == element, p
        assert searched and set(searched) == {1}

    def test_inconsistent_on_any_selection(self, monkeypatch):
        # with every row selected the contradiction is a pivot in the last
        # column; with the image pivots it is a row the solution fails
        space = LensSpace(5, 2)
        polys = [f_link(space, random_skein(5, random.Random(5)), k).signed_body for k in range(5)]
        polys[3] = polys[3] + z({1: 1})
        with pytest.raises(Inconsistent):
            recover_skein(space, polys)
        with pytest.raises(Inconsistent):
            self.all_rows(monkeypatch, recover_skein, space, polys)

    def test_typed_solution_must_solve_every_row(self, monkeypatch):
        # b = M x on the divisor rows 0, 1, 2 and 5 of p = 10 and changed on
        # row 3: the descended rows of [M | -b] would see only the divisor
        # rows and give x, so b, without M's action, is never typed.  The
        # typed M alone proves full rank, and the plain [M | -b] proves
        # that no solution exists
        space = LensSpace(10, 3)
        polys = [f_link(space, random_skein(10, random.Random(5)), k).signed_body for k in range(10)]
        polys[3] = polys[3] + z({1: 1})
        calls = []
        certify = analysis._certified

        def spy(matrix):
            calls.append((type(matrix), matrix.ncols, certify(matrix)))
            return calls[-1][2]

        monkeypatch.setattr(analysis, "_certified", spy)
        with pytest.raises(Inconsistent):
            recover_skein(space, polys)
        assert calls == [(analysis._FMatrix, 6, []), (LaurentMatrix, 7, [])]

    def test_untyped_copy_gives_the_same_answers(self, monkeypatch):
        # a plain LaurentMatrix with the f-matrix's entries is refined on its
        # own rows, over Q(xi_p)(z), to the same proven basis
        seen = refinements(monkeypatch)
        for p in range(2, 13):
            for q in valid_qs(p):
                matrix = build_f_matrix(LensSpace(p, q))
                plain = LaurentMatrix(matrix.entries)
                assert rank(plain) == rank(matrix), (p, q)
                assert analysis._certified(plain) == kernel(LensSpace(p, q)), (p, q)
        # kernel(space) refines its descended int rows, the plain copy its own
        assert True in seen and False in seen

    def test_refuted_rational_rows_join_the_selection(self, monkeypatch):
        # a short selection on the descended rows: the refinement over Q(z)
        # adds the refuting rows, with no Q(xi_p) step
        find = analysis._image_pivot_rows
        monkeypatch.setattr(analysis, "_image_pivot_rows",
                            lambda rows, n, stop=None: find(rows, n)[:-1] if integral(rows) else find(rows, n))
        # every elimination ran on the descended rows, cleared to int
        # coefficients; M's own rows, CyclotomicNumber terms, fail the spy
        eliminations = []
        eliminate = analysis._bareiss_echelon
        monkeypatch.setattr(analysis, "_bareiss_echelon", lambda rows: eliminations.append(integral(rows)) or eliminate(rows))
        for p, q in ((9, 1), (9, 4), (15, 2), (16, 3), (18, 5)):
            space = LensSpace(p, q)
            expected = all_rows_kernel(p, q)
            eliminations.clear()
            assert tuple(kernel(space)) == expected, (p, q)
            assert len(eliminations) >= 2 and all(eliminations), (p, q)
            eliminations.clear()
            analysis._bareiss_echelon(term_rows(build_f_matrix(space)))
            assert eliminations == [False], (p, q)

    def test_untyped_matrix_is_never_descended(self, monkeypatch):
        # a stand-in matrix whose rows are not Galois images of each other:
        # its descended rows (rows 1 and 0) would miss the constraint of
        # row 2 and give rank 1.  A plain LaurentMatrix is refined on its
        # own rows, from a short image, and the refuting row joins
        xi = root_of_unity(3)
        matrix = LaurentMatrix(((z({}), z({})), (z({0: xi}), z({0: -xi})), (z({0: xi * xi}), z({}))))
        find = analysis._image_pivot_rows
        monkeypatch.setattr(analysis, "_image_pivot_rows",
                            lambda rows, n, stop=None: find(rows, n) if integral(rows) else find(rows, n)[:-1])
        seen = refinements(monkeypatch)
        assert rank(matrix) == 2
        assert seen == [False]

    def test_incompatible_right_hand_side_falls_back(self, monkeypatch):
        # x_c = xi_p: b = M x lacks M's action (_has_action) and the
        # solution is not rational, so [M | -b] is not typed: the typed M
        # alone proves full rank, and the plain [M | -b], refined over
        # Q(xi_p)(z), decides
        for p, q in ((7, 3), (11, 2)):
            space = LensSpace(p, q)
            matrix = build_f_matrix(space)
            x = z({0: root_of_unity(p)})
            polys = [sum((entry * x for entry in row), z({})) for row in matrix.entries]
            with monkeypatch.context() as m:
                seen = refinements(m)
                fast = recover_skein(space, polys)
            assert seen and not seen[-1], (p, q)
            slow = self.all_rows(monkeypatch, recover_skein, space, polys)
            assert fast.z_components == slow.z_components, (p, q)
            assert fast.z_components == (RationalFunction(x),) * matrix.ncols
            assert fast.a_form is None

    @pytest.mark.parametrize("p, q", [(9, 1), (12, 5), (15, 2), (16, 3), (21, 2)])
    def test_row_scaling_keeps_the_basis(self, p, q):
        # a row times a unit z^s and a nonzero rational spans the same line,
        # so the normalized basis cannot depend on such scalings
        matrix = build_f_matrix(LensSpace(p, q))
        scaled = LaurentMatrix(tuple(
            tuple(e.shift(3 * k - p).scale(Fraction(2 * k + 1, k + 3)) for e in row)
            for k, row in enumerate(matrix.entries)
        ))
        assert analysis._certified(scaled) == analysis._certified(matrix)

    def test_order_49_rank(self):
        # over Q(xi_49)(z) this rank did not finish in 180 s
        matrix = build_f_matrix(LensSpace(49, 3))
        assert rank(matrix) == 22
        basis = kernel(LensSpace(49, 3))
        assert len(basis) == matrix.ncols - 22
        assert basis_digest(basis) == "de15f95efcb37851347fa40ebeca987a5e5d07cf2b74e3ed66731936abfeff20"
        for vec in basis:
            assert annihilates(matrix, vec)

    def test_order_57_rank(self):
        # a Bareiss step on LaurentPoly rows took 2.9 s for this rank
        space = LensSpace(57, 2)
        matrix = build_f_matrix(space)
        assert rank(matrix) == count_squares_mod(57)
        basis = kernel(space)
        assert basis_digest(basis) == "36984cafab7afad1c5b19437dd8bcafe31c43e8d665ff699f0c4908e7b88b03d"
        for vec in basis:
            assert annihilates(matrix, vec)

    def test_order_25_kernel(self):
        # eliminating on all 25 rows did not finish in ten minutes
        space = LensSpace(25, 1)
        matrix = build_f_matrix(space)
        basis = kernel(space)
        assert len(basis) == 13 - 11
        assert basis_digest(basis) == "304e9e71599ff5f22c81d8479c9755ef0ed6e0dc0399e3870c05b2881800cd0b"
        for vec in basis:
            assert not vec.is_zero()
            assert annihilates(matrix, vec)

    @pytest.mark.parametrize("p, q", [(66, 5), (70, 3), (78, 5)])
    def test_formerly_slow_orders(self, p, q):
        # the descended rows in index order swell these to 5-11 s each, and
        # sparsest first to a few tenths of a second: --durations shows a return
        space = LensSpace(p, q)
        matrix = build_f_matrix(space)
        basis = kernel(space)
        assert rank(matrix) == matrix.ncols - len(basis) == count_squares_mod(p)
        assert basis_digest(basis) == {
            (66, 5): "33a9fe80f0e6acea85e7838f89d18c058d61ecb1fb4e1e2ae6874b2e90d2d402",
            (70, 3): "f9a07bca78c7addf7ec97ecd4d50033ac0ff933c0e178822be11d433966d8faa",
            (78, 5): "13d83e8bef972f974971dd484307114aeb4611f5b07e473a33e809467d359784",
        }[p, q]
        for vec in basis:
            assert not vec.is_zero()
            assert annihilates(matrix, vec)


def unit_generators(p):
    """A generating set of the units mod p: each unit that the ones before
    do not generate."""
    group, gens = {1 % p}, []
    for u in range(2, p):
        if math.gcd(u, p) == 1 and u not in group:
            gens.append(u)
            while not group >= (grown := {a * g % p for a in group for g in gens}):
                group |= grown
    return gens


class TestGaloisAction:
    """The lemma of analysis._FMatrix, exactly: sigma_g(M_k) = M_(k/g) entry
    by entry for a generating set g of the units mod p, which gives it for
    every unit; and the descended rows have M's zero columns."""

    @staticmethod
    def check(matrix):
        p = matrix.nrows
        assert type(matrix) is analysis._FMatrix
        for g in unit_generators(p):
            inverse = mod_inverse(g, p)
            for k, row in enumerate(matrix.entries):
                for entry, image in zip(row, matrix.entries[k * inverse % p]):
                    assert {e: c.galois(g) for e, c in entry.terms.items()} == image.terms, (p, g, k)
        rows = term_rows(matrix)
        descended = analysis._descended(matrix)
        cols = range(matrix.ncols)
        assert [c for c in cols if not any(row[c] for row in descended)] == [c for c in cols if not any(row[c] for row in rows)]

    def test_unit_generators(self):
        for p in range(2, 99):
            units, gens = {u for u in range(p) if math.gcd(u, p) == 1}, unit_generators(p)
            group = {1 % p}
            while not group >= (grown := {a * g % p for a in group for g in gens}):
                group |= grown
            assert group == units, p

    def test_every_space_up_to_30(self):
        for p in range(2, 31):
            for q in valid_qs(p):
                self.check(build_f_matrix(LensSpace(p, q)))

    @pytest.mark.parametrize("p, q", [(49, 3), (81, 43), (98, 25)])
    def test_large_orders(self, p, q):
        self.check(build_f_matrix(LensSpace(p, q)))


class TestFMatrixMemo:
    """build_f_matrix returns one read-only _FMatrix per space, read from
    the Gauss table through the term formula of f_poly; rank leaves its
    proven kernel basis on it for kernel and recover_skein."""

    @staticmethod
    def check_entries(p, q):
        space = LensSpace(p, q)
        matrix = build_f_matrix(space)
        assert (matrix.nrows, matrix.ncols) == (p, p // 2 + 1)
        for k, row in enumerate(matrix.entries):
            for c, entry in enumerate(row):
                want = f_poly(space, c, k).signed_body
                assert entry.var == want.var == "z", (p, q, c, k)
                assert [(e, x, x.order) for e, x in entry.terms.items()] == [
                    (e, x, x.order) for e, x in want.terms.items()
                ], (p, q, c, k)
        return p * matrix.ncols

    def test_entries_are_the_signed_bodies(self):
        count = sum(self.check_entries(p, q) for p in range(2, 31) for q in valid_qs(p))
        count += sum(self.check_entries(p, q) for p, q in ((49, 3), (81, 43), (98, 25)))
        assert count == 76724

    def test_one_proof_per_space(self, monkeypatch):
        # rank proves M's kernel; kernel and the ker M step of an
        # incompatible recover read it: one _certified call on M in all
        space, make = INCOMPATIBLE["row 1 + xi_9 at L(9,1)"]
        polys = make(space)
        calls = []
        certify = analysis._certified
        monkeypatch.setattr(analysis, "_certified", lambda matrix: calls.append(matrix) or certify(matrix))
        matrix = build_f_matrix(space)
        assert rank(matrix) == 4
        assert tuple(kernel(space)) == all_rows_kernel(9, 1)
        with pytest.raises(RankDeficient):
            recover_skein(space, polys)
        assert len(calls) == 1 and calls[0] is matrix

    def test_kernel_keeps_its_proof(self, monkeypatch):
        # kernel keeps the basis it proves, as rank does: selftest criteria
        # 8 and 9 read the kernels of L(9,1) and L(9,4) twice each and prove
        # each once
        calls = []
        certify = analysis._certified
        monkeypatch.setattr(analysis, "_certified", lambda matrix: calls.append(matrix) or certify(matrix))
        for number in (8, 9):
            ok, detail = next(fn for n, _, fn in selftest.CRITERIA if n == number)()
            assert ok, detail
        assert calls == [build_f_matrix(LensSpace(9, 1)), build_f_matrix(LensSpace(9, 4))]

    def test_memo_is_read_only(self):
        space = LensSpace(9, 4)
        matrix = build_f_matrix(space)
        entries = repr(matrix)
        assert build_f_matrix(LensSpace(9, 4)) is matrix
        rank(matrix)
        basis = kernel(space)
        basis.append(None)  # the caller's list, not the carried basis
        assert kernel(space) == [RationalFunctionVector(KERNEL_9_4)] and repr(matrix) == entries
        copied = pickle.loads(pickle.dumps(matrix))
        assert copied == matrix and not hasattr(copied, "_basis")


    def test_lazy_matrix_is_a_record(self):
        # == and repr read the entries, as a LaurentMatrix's do; a
        # pickle carries the space and b, and its copy builds them afresh
        space = LensSpace(10, 3)
        polys = tuple(link_polys(space, 5))
        matrix, augmented = build_f_matrix(space), analysis._FMatrix(space, polys)
        for made, args in ((matrix, (space, None)), (augmented, (space, polys))):
            assert "entries" not in vars(made) and made.__reduce__() == (analysis._FMatrix, args)
            plain = LaurentMatrix(made.entries)
            assert repr(made) == "_FMatrix" + repr(plain)[len("LaurentMatrix"):]
            assert made != plain
            for unhashable in (made, plain):  # LaurentPoly entries have no hash
                with pytest.raises(TypeError):
                    hash(unhashable)
            copied = pickle.loads(pickle.dumps(made))
            assert "entries" not in vars(copied) and copied == made
        assert augmented.entries == tuple(row + (-fp,) for row, fp in zip(matrix.entries, polys))
        assert augmented != matrix

def link_polys(space, seed):
    """The signed bodies f_link(J, k) of a seeded skein element J, k = 0..p-1."""
    element = random_skein(space.p, random.Random(seed), max_exp=1, bound=2)
    return [f_link(space, element, k).signed_body for k in range(space.p)]


def changed(space, k, extra):
    """link_polys(space, 5) with extra added to the polynomial of row k."""
    polys = link_polys(space, 5)
    polys[k] = polys[k] + extra
    return polys


def outcome(fn, *args):
    """fn(*args), or the class of the RankDeficient or Inconsistent it raises."""
    try:
        return fn(*args)
    except (RankDeficient, Inconsistent) as err:
        return type(err)


# right-hand sides without M's action: a non-divisor row changed, a divisor
# row off its stabiliser, a coefficient of an order that does not divide p,
# and one at an order where M is deficient
INCOMPATIBLE = {
    "row 3 + z at L(10,3)": (LensSpace(10, 3), lambda s: changed(s, 3, z({1: 1}))),
    "row 0 + xi_7 at L(7,3)": (LensSpace(7, 3), lambda s: changed(s, 0, z({0: root_of_unity(7)}))),
    "row 5 + xi_10 at L(10,3)": (LensSpace(10, 3), lambda s: changed(s, 5, z({0: root_of_unity(10)}))),
    "order 5 at L(7,3)": (LensSpace(7, 3), lambda s: changed(s, 0, z({0: root_of_unity(5)}))),
    "row 1 + xi_9 at L(9,1)": (LensSpace(9, 1), lambda s: changed(s, 1, z({0: root_of_unity(9)}))),
}
# b_0 = z and every other b_k = 0: it has M's action and no solution
COMPATIBLE_INCONSISTENT = [(5, 2), (7, 3), (10, 3), (13, 2)]


def only_z(p):
    return [z({1: 1})] + [z({})] * (p - 1)


class TestRightHandSideAction:
    """recover_skein asks M's proof whether M is rank deficient, whatever b
    is; then it types [M | -b] as an _FMatrix exactly when b has M's action
    (analysis._has_action), and otherwise the plain [M | -b] decides."""

    def test_link_invariants_have_the_action(self):
        for p in range(2, 31):
            assert analysis._has_action([z({})] * p, p), p
            for q in valid_qs(p):
                assert analysis._has_action(link_polys(LensSpace(p, q), p + q), p), (p, q)

    @pytest.mark.parametrize("name", INCOMPATIBLE)
    def test_incompatible_matches_all_rows(self, monkeypatch, name):
        space, make = INCOMPATIBLE[name]
        polys = make(space)
        assert not analysis._has_action(polys, space.p)
        assert analysis._has_action(link_polys(space, 5), space.p)
        got = outcome(recover_skein, space, polys)
        assert got == outcome(TestCertifiedPivots.all_rows, monkeypatch, recover_skein, space, polys)

    def test_deficient_order_needs_no_cyclotomic_refinement(self, monkeypatch):
        # ker M, proven on the descended int rows, decides RankDeficient
        # before any elimination over Q(xi_p)
        space, make = INCOMPATIBLE["row 1 + xi_9 at L(9,1)"]
        polys = make(space)
        seen = refinements(monkeypatch)
        with pytest.raises(RankDeficient):
            recover_skein(space, polys)
        assert seen and all(seen)

    @pytest.mark.parametrize("p, q", COMPATIBLE_INCONSISTENT)
    def test_compatible_inconsistent_in_one_typed_call(self, monkeypatch, p, q):
        space, polys = LensSpace(p, q), only_z(p)
        assert analysis._has_action(polys, p)
        calls = []
        certify = analysis._certified
        with monkeypatch.context() as m:
            m.setattr(analysis, "_certified", lambda matrix: calls.append(matrix) or certify(matrix))
            with pytest.raises(Inconsistent):
                recover_skein(space, polys)
        # M's proof, then one typed [M | -b]
        matrix = build_f_matrix(space)
        assert len(calls) == 2 and calls[0] is matrix
        assert type(calls[1]) is analysis._FMatrix and calls[1].ncols == matrix.ncols + 1
        with pytest.raises(Inconsistent):
            TestCertifiedPivots.all_rows(monkeypatch, recover_skein, space, polys)

    @pytest.mark.parametrize("p, q, r", [(9, 1, 4), (12, 5, 4)])
    def test_proof_of_m_decides_rank_deficiency(self, monkeypatch, p, q, r):
        # with or without M's action, b meets one rule: M's proof, one
        # _certified call on M, raises RankDeficient, and no [M | -b] of
        # either type is made
        space = LensSpace(p, q)
        compatible, incompatible = link_polys(space, 5), changed(space, 1, z({0: root_of_unity(p)}))
        assert analysis._has_action(compatible, p) and not analysis._has_action(incompatible, p)
        certify = analysis._certified
        for polys in (compatible, incompatible):
            calls, made = [], []
            with monkeypatch.context() as m:
                m.setattr(analysis, "_F_MATRICES", {})
                m.setattr(analysis, "_certified", lambda matrix: calls.append(matrix) or certify(matrix))
                for cls in (LaurentMatrix, analysis._FMatrix):
                    m.setattr(cls, "__post_init__", lambda matrix: made.append(matrix))
                with pytest.raises(RankDeficient) as err:
                    recover_skein(space, polys)
                matrix = build_f_matrix(space)
            assert str(err.value) == f"f-matrix of L({p},{q}) has rank {r} < {p // 2 + 1}"
            assert len(calls) == 1 and calls[0] is matrix
            assert len(made) == 1 and made[0] is matrix  # M alone: no [M | -b]

    def test_queries_prove_m_once(self, monkeypatch):
        # rank, kernel, rank again and a recover at a full-rank space read
        # one proof of M; the recover proves only its [M | -b]
        space = LensSpace(7, 3)
        element = random_skein(7, random.Random(5), max_exp=1, bound=2)
        calls = []
        certify = analysis._certified
        monkeypatch.setattr(analysis, "_certified", lambda matrix: calls.append(matrix) or certify(matrix))
        matrix = build_f_matrix(space)
        assert rank(matrix) == 4 and kernel(space) == [] and rank(matrix) == 4
        assert recover_skein(space, link_polys(space, 5)).a_form == element
        assert len(calls) == 2 and calls[0] is matrix and calls[1].ncols == matrix.ncols + 1

    def test_every_typed_matrix_has_the_action(self, monkeypatch):
        # every _FMatrix that the recovers above build, [M | -b] included,
        # satisfies the lemma entry by entry
        made = []
        validate = LaurentMatrix.__post_init__
        monkeypatch.setattr(analysis._FMatrix, "__post_init__", lambda matrix: validate(matrix) or made.append(matrix))
        cases = [(space, make(space)) for space, make in INCOMPATIBLE.values()]
        cases += [(LensSpace(p, q), only_z(p)) for p, q in COMPATIBLE_INCONSISTENT]
        cases += [(LensSpace(p, q), link_polys(LensSpace(p, q), 5)) for p, q in ((7, 3), (10, 3), (9, 1))]
        for space, polys in cases:
            outcome(recover_skein, space, polys)
        assert any(matrix.ncols == matrix.nrows // 2 + 2 for matrix in made)
        for matrix in made:
            TestGaloisAction.check(matrix)


def entries_descended(matrix):
    """The reference descent, from every row of the materialized entries:
    each row times the lcm of its coefficient denominators, then the
    power-basis coordinates of each divisor row d, lifted to n, the lcm of
    all coefficient orders, which must be p."""
    rows, n = [], 1
    for row in matrix.entries:
        coeffs = [c for entry in row for c in entry.terms.values()]
        n = math.lcm(n, *(c.order for c in coeffs))
        scale = math.lcm(*(c.denominator for c in coeffs))
        rows.append([{e: c * scale for e, c in entry.terms.items()} for entry in row])
    assert n == len(rows)
    descended = []
    for k in analysis._divisor_rows(len(rows)):
        coords = {}
        for col, entry in enumerate(rows[k]):
            for e, c in entry.items():
                for j, v in enumerate(c.lift(n)._num):
                    if v:
                        coords.setdefault(j, [{} for _ in rows[k]])[col][e] = v
        descended.extend(coords[j] for j in sorted(coords))
    return descended


def ordered(rows):
    """Rows of term dicts as lists of (exponent, coefficient) lists, in order."""
    return [[list(entry.items()) for entry in row] for row in rows]


def scaled_first_column(space, ell):
    """b_k = M[k][0] / ell: M's action, and a 1/ell denominator on every row."""
    return [f_poly(space, 0, k).signed_body.scale(Fraction(1, ell)) for k in range(space.p)]


class TestDivisorRows:
    """An _FMatrix gives _certified the descended rows of its tau(p)
    divisor rows, read from the Gauss table: the rows, in the order, that
    the descent of all p materialized rows gives; rank, kernel and a
    recover whose b has M's action never build the entries."""

    @staticmethod
    def check(matrix):
        assert ordered(analysis._descended(matrix)) == ordered(entries_descended(matrix))

    def test_every_space_up_to_30(self):
        for p in range(2, 31):
            for q in valid_qs(p):
                self.check(analysis._FMatrix(LensSpace(p, q)))

    @pytest.mark.parametrize("p, q", [(49, 3), (81, 43), (98, 25)])
    def test_large_orders(self, p, q):
        self.check(analysis._FMatrix(LensSpace(p, q)))

    def test_right_hand_sides(self):
        # rational, order-1 and zero coefficients in the -b column
        for p in range(2, 31):
            space = LensSpace(p, first_q(p) if p > 2 else 1)
            ell = modular._modulus(1)[0]
            for polys in (link_polys(space, p), only_z(p), [z({})] * p, scaled_first_column(space, ell)):
                self.check(analysis._FMatrix(space, tuple(polys)))

    @pytest.fixture
    def unbuilt(self, monkeypatch):
        """A read of an _FMatrix's entries fails the test; the test ends by
        checking that no _FMatrix made meanwhile holds them."""
        lazy = analysis._FMatrix.__getattr__

        def guard(matrix, name):
            if name == "entries":
                raise AssertionError("the entries of an f-matrix were built")
            return lazy(matrix, name)

        made = []
        monkeypatch.setattr(analysis._FMatrix, "__getattr__", guard)
        monkeypatch.setattr(analysis._FMatrix, "__post_init__", lambda matrix: made.append(matrix))
        return made

    @pytest.mark.parametrize("p, q", [(9, 1), (12, 5), (13, 2), (14, 5), (15, 2), (16, 3)])
    def test_rank_and_kernel_build_no_entries(self, unbuilt, p, q):
        space = LensSpace(p, q)
        assert rank(build_f_matrix(space)) + len(kernel(space)) == p // 2 + 1
        assert rank(analysis._FMatrix(space)) == rank(build_f_matrix(space))
        assert len(unbuilt) == 2 and not any("entries" in vars(matrix) for matrix in unbuilt)

    @pytest.mark.parametrize("p, q", [(7, 3), (10, 3), (11, 1), (14, 5)])
    def test_typed_recover_builds_no_entries(self, unbuilt, p, q):
        space, ell = LensSpace(p, q), modular._modulus(1)[0]
        element = random_skein(p, random.Random(p), max_exp=1, bound=2)
        assert recover_skein(space, [f_link(space, element, k).signed_body for k in range(p)]).a_form == element
        solution = recover_skein(space, scaled_first_column(space, ell)).z_components
        assert solution == (RationalFunction(z({0: Fraction(1, ell)})),) + (RationalFunction(z({})),) * (p // 2)
        assert outcome(recover_skein, space, only_z(p)) is Inconsistent
        assert outcome(recover_skein, LensSpace(9, 1), [z({})] * 9) is RankDeficient
        assert any(matrix.ncols == p // 2 + 2 for matrix in unbuilt)
        assert not any("entries" in vars(matrix) for matrix in unbuilt)


def basis_digest(basis) -> str:
    """SHA-256 of the basis reprs, as test_exact_answers_keep_their_digest
    hashes them: the large-order pins were recorded before the kernel
    vectors were normalized over Z[z, 1/z]."""
    return hashlib.sha256(repr([vec.components for vec in basis]).encode()).hexdigest()


def first_q(p):
    return next(q for q in valid_qs(p) if q >= 2)


class TestMirror:
    """L(p, p - q) mirrors L(p, q): s(-q, p) = -s(q, p) gives M(p, p - q)[k][c]
    = -z^(p(c^2 + 2c)) sigma_-1(M(p, q)[k][c])(1/z), so a rational v in
    ker M(p, q) gives w_c = z^(-p(c^2 + 2c)) v_c(1/z) in ker M(p, p - q).
    The two kernels come from two separate eliminations."""

    def test_mirrored_kernels_match(self):
        for p in range(2, 31):
            for q in valid_qs(p):
                basis, mirror = kernel(LensSpace(p, q)), LensSpace(p, p - q)
                assert len(basis) == len(kernel(mirror)), (p, q)
                for v in basis:
                    w = RationalFunctionVector(tuple(z({-e - p * (c * c + 2 * c): x for e, x in v_c.terms.items()})
                                                     for c, v_c in enumerate(v)))
                    assert annihilates(build_f_matrix(mirror), w), (p, q, v)


class TestSquaresLemma:
    """The lemma of analysis.rank: M(p, q) = P Gamma_p E D, so rank M <=
    rank Gamma_p = count_squares_mod(p), Gamma_p[a, b] = G(a, b; p)."""

    def test_entries_factor_through_the_gauss_matrix(self):
        # entry (k, c) = s_c z^(e0(c) - 2(c+1)) (G(qk, b_c + 1) z^(4(c+1))
        # - G(qk, b_c - 1)), b_c = q(c+1), s_c = (-1)^(c+1), e0(c) = 12 p s(q, p)
        # + q(c^2 + 2c), with every G from the reference counter
        checked = 0
        for p in range(2, 31):
            gamma = [[gauss_sum(GaussSumSpec(p, a, b)) for b in range(p)] for a in range(p)]
            for q in valid_qs(p):
                space = LensSpace(p, q)
                twelve_ps = 12 * p * space.dedekind
                assert twelve_ps.denominator == 1, (p, q)
                for k, row in enumerate(build_f_matrix(space).entries):
                    g = gamma[q * k % p]
                    for c, entry in enumerate(row):
                        b, low, sign = q * (c + 1), int(twelve_ps) + q * (c * c + 2 * c) - 2 * (c + 1), (-1) ** (c + 1)
                        want = {low + 4 * (c + 1): sign * g[(b + 1) % p], low: -sign * g[(b - 1) % p]}
                        assert entry == z({e: x for e, x in want.items() if x}), (p, q, k, c)
                        checked += 1
        assert checked == 67278

    def test_gauss_matrix_image_has_the_squares_rank(self):
        # the image of Gamma_p mod l, fully eliminated, has rank
        # count_squares_mod(p) at every p <= 100: the bound is reached, and
        # no image exceeds it
        for p in range(2, 101):
            ell, omega, _ = modular._modulus(p)
            table = modular._sum_table(p, ell, omega)
            assert len(modular._echelon_mod(table, ell)[0]) == count_squares_mod(p), p


class TestRankFromTheBound:
    """A deficient rank of an f-matrix is count_squares_mod(p), proven by the
    lemma and an image minor that reaches it, with no elimination over Z[z];
    the kernel that follows refines the rows that rank imaged, carried in
    a slot that holds one matrix's rows."""

    @staticmethod
    def spy(monkeypatch, name, seen):
        """Record the arguments of every call of analysis.<name>."""
        real = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda *args: seen.append(args) or real(*args))

    def test_rank_runs_no_elimination(self, monkeypatch):
        def forbidden(rows):
            raise AssertionError("the lemma and the image prove this rank")

        monkeypatch.setattr(analysis, "_bareiss_echelon", forbidden)
        deficient = 0
        for p in range(2, 31):
            for q in valid_qs(p):
                matrix = build_f_matrix(LensSpace(p, q))
                assert rank(matrix) == count_squares_mod(p), (p, q)
                carried = analysis._CARRIED[0] is matrix
                assert carried == ("_basis" not in vars(matrix)), (p, q)
                deficient += carried
        assert deficient == 94  # the spaces whose bound is below ncols less the zero columns

    def test_kernel_after_rank_images_nothing(self, monkeypatch):
        # the kernel refines the rows that rank imaged, from the kept
        # selection, and proves every vector on all of them; when another
        # rank took the slot, it builds them again, and still images none
        images, descents, proofs = [], [], []
        self.spy(monkeypatch, "_image_pivot_rows", images)
        self.spy(monkeypatch, "_descended", descents)
        self.spy(monkeypatch, "_refuting_row", proofs)
        for p, q in ((9, 1), (15, 2), (16, 3), (21, 2), (25, 3)):
            space, other = LensSpace(p, q), LensSpace(p, p - q)
            rows = len(analysis._descended(analysis._FMatrix(space)))
            for between in ((), (other,)):
                analysis._F_MATRICES.clear()
                images.clear(), descents.clear(), proofs.clear()
                assert rank(build_f_matrix(space)) == count_squares_mod(p), (p, q)
                for s in between:
                    assert rank(build_f_matrix(s)) == count_squares_mod(p), (p, q)
                assert len(images) == 1 + len(between) and len(descents) == 1 + len(between), (p, q)
                basis = kernel(space)
                assert len(images) == 1 + len(between), (p, q)
                assert len(descents) == 1 + 2 * len(between), (p, q)  # rebuilt only after a slot miss
                assert proofs and all(len(args[0]) == rows for args in proofs), (p, q)
                assert len(basis) == p // 2 + 1 - count_squares_mod(p), (p, q)
                for vec in basis:
                    assert annihilates(build_f_matrix(space), vec), (p, q)

    def test_short_image_falls_back(self, monkeypatch):
        # a stand-in image one row short of the bound: rank refines that
        # selection through the proof, which the refuting rows join
        find, refined_calls = analysis._image_pivot_rows, []
        monkeypatch.setattr(analysis, "_image_pivot_rows", lambda rows, n, stop=None: find(rows, n, stop)[:-1])
        self.spy(monkeypatch, "_refined", refined_calls)
        for p in TestRowOrder.DEFICIENT:
            space = LensSpace(p, first_q(p))
            refined_calls.clear()
            matrix = build_f_matrix(space)
            assert rank(matrix) == count_squares_mod(p), p
            assert len(refined_calls) == 1 and "_basis" in vars(matrix), p
            assert len(vars(matrix)["_image"][0]) < count_squares_mod(p), p
            assert rank(matrix) + len(kernel(space)) == matrix.ncols and len(refined_calls) == 1, p
            assert analysis._CARRIED[0] is not matrix, p

    def test_one_matrix_keeps_its_rows(self):
        # ranking every q of p = 30 leaves the rows of the last alone; no
        # matrix keeps more than its selection and zero columns, and the
        # kernel's proof lets the carried rows go
        for q in valid_qs(30):
            assert rank(build_f_matrix(LensSpace(30, q))) == count_squares_mod(30), q
        last = build_f_matrix(LensSpace(30, valid_qs(30)[-1]))
        assert analysis._CARRIED[0] is last
        assert len(analysis._F_MATRICES) == 8 and all(set(vars(m)) == {"_image"} for m in analysis._F_MATRICES.values())
        kernel(LensSpace(30, valid_qs(30)[-1]))
        assert analysis._CARRIED == (None, None) and set(vars(last)) == {"_image", "_basis"}


class TestRowOrder:
    """The order of the descended rows decides which rows the image picks
    and the elimination runs on, never the answer: the proof is on all
    descended rows, and the normalized basis is unique for a row space."""

    DEFICIENT = [p for p in range(2, 31) if classify_order(p) is OrderClass.NON_DETERMINING]

    @staticmethod
    def shuffle(monkeypatch, seed, sort):
        """_descended returns its rows in a seeded shuffle.  Without sort,
        _weight is constant, so _certified's stable sort keeps the shuffle.
        The f-matrices are built afresh, so that kernel reads no basis that
        rank proved before the shuffle."""
        descend, rng = analysis._descended, random.Random(seed)
        monkeypatch.setattr(analysis, "_F_MATRICES", {})

        def shuffled(matrix):
            out = descend(matrix)
            rng.shuffle(out)
            return out

        monkeypatch.setattr(analysis, "_descended", shuffled)
        if not sort:
            monkeypatch.setattr(analysis, "_weight", lambda row: 0)

    @staticmethod
    def answers(spaces):
        return [(rank(build_f_matrix(space)), repr(kernel(space))) for space in spaces]

    @pytest.mark.parametrize("sort", [True, False])
    def test_kernel_and_rank_at_deficient_orders(self, monkeypatch, sort):
        spaces = [LensSpace(p, first_q(p)) for p in self.DEFICIENT]
        if sort:  # unsorted, L(66,5) takes seconds
            spaces.append(LensSpace(66, 5))
        expected = self.answers(spaces)
        for seed in (1, 2, 3):
            with monkeypatch.context() as m:
                self.shuffle(m, seed, sort)
                assert self.answers(spaces) == expected, seed

    def test_recover(self, monkeypatch):
        rng = random.Random(21)
        cases = []
        for p, q in ((7, 3), (11, 1), (14, 5)):
            space, element = LensSpace(p, q), random_skein(p, rng)
            polys = [f_link(space, element, k).signed_body for k in range(p)]
            cases.append((space, polys, recover_skein(space, polys)))
            assert cases[-1][2].a_form == element
        for seed in (1, 2, 3):
            for sort in (True, False):
                with monkeypatch.context() as m:
                    self.shuffle(m, seed, sort)
                    for space, polys, expected in cases:
                        got = recover_skein(space, polys)
                        assert got == expected and repr(got) == repr(expected), (space, seed, sort)


class TestHatC:
    def test_q_one_shift(self):
        for p in (5, 9, 14):
            for c in range(p):
                assert hat_c(p, 1, c) == (c - 2) % p

    def test_frozen_example(self):
        # 4 * 1 + 4 + 1 = 9 = 0 mod 9
        assert hat_c(9, 4, 0) == 1

    def test_defining_congruence(self):
        for p in range(2, 31):
            for q in valid_qs(p):
                for c in range(p):
                    h = hat_c(p, q, c)
                    assert 0 <= h < p
                    assert (q * h + q + 1 - c) % p == 0


class TestFullrankSubmatrix:
    def test_order_two_block(self):
        cert = fullrank_submatrix(LensSpace(2, 1))
        assert cert.nonzero
        assert cert.entries[1][1] == 2  # the 1x1 inner block
        assert cert.entries[0][0] == 2 and cert.entries[0][1].is_zero()

    def test_prime_vandermonde_structure(self):
        p, q = 7, 1
        cert = fullrank_submatrix(LensSpace(p, q))
        assert cert.nonzero
        g10 = gauss_sum(GaussSumSpec(p, 1, 0))
        qstar = mod_inverse(q, p)
        lam_exp = (-qstar * ((p + 1) // 2) ** 2) % p
        for ki, k in enumerate(cert.row_selection):
            if ki == 0:
                continue
            # row = jacobi(q k, p) * G_p(1,0) times powers of lambda^(c^2)
            kinv = mod_inverse(cert.row_selection[ki], p)  # k value is kinv^-1's inverse
            for ci in range(1, len(cert.col_selection)):
                c = ci  # colors were selected as hat(c) in order
                expected = (
                    _jacobi(q * k, p)
                    * root_of_unity(p, lam_exp * c * c * kinv)
                    * g10
                )
                assert cert.entries[ki][ci] == expected

    def test_twice_odd_prime_block_structure(self):
        space = LensSpace(6, 1)
        cert = fullrank_submatrix(space)
        assert cert.nonzero
        size = len(cert.row_selection)
        # last row: zero except the final entry 2s
        for ci in range(size - 1):
            assert cert.entries[size - 1][ci].is_zero()
        assert cert.entries[size - 1][size - 1] == 6
        # opposite-parity entries vanish inside the nontrivial block
        colors_order = [0, 2, 1, 3]
        for ki in range(1, size):
            for ci in range(1, size):
                k = cert.row_selection[ki]
                if (colors_order[ci] - k) % 2 == 1:
                    assert cert.entries[ki][ci].is_zero()

    def test_every_valid_q_small_orders(self):
        for p in (2, 3, 5, 7, 6, 10):
            for q in valid_qs(p):
                assert fullrank_submatrix(LensSpace(p, q)).nonzero

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            fullrank_submatrix(LensSpace(12, 5))

    def test_json_certificate(self):
        import json

        cert = fullrank_submatrix(LensSpace(6, 1))
        doc = cert.to_json()
        assert doc["nonzero"] is True
        assert doc["rows"] == list(cert.row_selection)
        json.dumps(doc)  # serializable, deterministic key order


CERTIFIED_ORDERS = [p for p in range(2, 31) if is_prime(p) or p % 2 == 0 and is_prime(p // 2) and p // 2 % 2 == 1]


def bareiss_determinant(cert):
    """The certificate's determinant by fraction-free elimination over Q(xi_p)."""
    rows = [[{0: e} if e else {} for e in row] for row in cert.entries]
    pivots, odd = analysis._bareiss_echelon(rows)
    if len(pivots) < len(rows):
        return CyclotomicNumber.zero(cert.determinant.order)
    det = rows[-1][-1][0]
    return -det if odd else det


def gauss_keys(space, cert):
    """(a of each row, b of each column): entry (i, c) is gauss_sum(p, a_i, b_c)."""
    p, q = space.p, space.q
    return [q * k % p for k in cert.row_selection], [(q * c + q + 1) % p for c in cert.col_selection]


def hadamard_square(space, cert):
    """B^2 from the closed form |G(a, b; p)|^2 <= 2p gcd(a, p): the bound
    the determinant's CRT runs under."""
    row_a, col_b = gauss_keys(space, cert)
    return modular._hadamard_square(space.p, row_a, len(col_b))


def l1_square(cert):
    """B^2, B the Hadamard product of the rows' l1 norms of numerators: a
    valid bound, looser than the closed form."""
    return math.prod(sum(sum(map(abs, e.coeffs)) ** 2 for e in row) for row in cert.entries)


def certificate_primes(monkeypatch, space):
    """(fullrank_submatrix(space), the primes l its CRT ran over)."""
    primes = []
    find = modular._modulus
    with monkeypatch.context() as m:
        m.setattr(modular, "_modulus", lambda n, index=0: primes.append(find(n, index)[0]) or find(n, index))
        cert = fullrank_submatrix(space)
    return cert, list(dict.fromkeys(primes))  # an uncached search also asks for the primes before


class TestConjugateDeterminant:
    """The certificate determinant: the image of every conjugate mod primes
    l = 1 (mod p), a Vandermonde solve per prime, CRT until the product of
    the primes exceeds 4B."""

    def test_equals_the_bareiss_determinant(self):
        for p in CERTIFIED_ORDERS:
            for q in valid_qs(p):
                cert = fullrank_submatrix(LensSpace(p, q))
                assert cert.determinant.order == p, (p, q)
                assert cert.determinant == bareiss_determinant(cert), (p, q)
        cert = fullrank_submatrix(LensSpace(43, 2))
        assert cert.determinant == bareiss_determinant(cert)

    def test_coordinates_lie_inside_twice_the_bound(self):
        for p in CERTIFIED_ORDERS:
            space = LensSpace(p, valid_qs(p)[-1])
            cert = fullrank_submatrix(space)
            assert cert.determinant.denominator == 1, p
            assert max(abs(d) for d in cert.determinant.coeffs) ** 2 < 4 * hadamard_square(space, cert), p

    def test_one_prime_is_not_enough(self, monkeypatch):
        # L(43,2): 88-bit coordinates, and 4B has 125 bits; the primes stop at
        # the first product above 4B, and stopping after one gives a wrong
        # determinant
        space = LensSpace(43, 2)
        cert, primes = certificate_primes(monkeypatch, space)
        product = math.prod(primes)
        assert len(primes) == 3 and product ** 2 > 16 * hadamard_square(space, cert) >= (product // primes[-1]) ** 2
        assert max(abs(d) for d in cert.determinant.coeffs).bit_length() == 88
        row_a, col_b = gauss_keys(space, cert)
        monkeypatch.setattr(modular, "_hadamard_square", lambda p, row_a, width: 1)
        assert modular._gauss_determinant(43, row_a, col_b) != cert.determinant  # one prime passes 4B = 4

    def test_the_closed_form_bound_stops_early(self, monkeypatch):
        # 4B from |G|^2 <= 2p gcd(a, p) against the l1 norms of numerators:
        # 59 against 76 bits at L(23,3), 182 against 250 at L(59,2); the
        # primes lie above 2^62, so 1 where the l1 bound ran 2, and 3 for 5
        for (p, q), count in (((23, 3), 1), ((59, 2), 3)):
            cert, primes = certificate_primes(monkeypatch, LensSpace(p, q))
            assert len(primes) == count, (p, q, len(primes))

    def test_the_l1_bound_gives_the_same_determinant(self, monkeypatch):
        # CRT run past any valid bound gives the same symmetric residues
        space = LensSpace(59, 2)
        cert = fullrank_submatrix(space)
        row_a, col_b = gauss_keys(space, cert)
        assert l1_square(cert) > hadamard_square(space, cert)
        monkeypatch.setattr(modular, "_hadamard_square", lambda p, row_a, width: l1_square(cert))
        assert modular._gauss_determinant(59, row_a, col_b) == cert.determinant

    def test_table_images_are_the_conjugates_images(self):
        # sigma_u G(a, b) = G(ua, ub): each conjugate's entries are read from
        # the table at (ua, ub)
        for p in CERTIFIED_ORDERS:
            ell, omega, _ = modular._modulus(p, 1)
            table = modular._sum_table(p, ell, omega)
            space = LensSpace(p, valid_qs(p)[-1])
            cert = fullrank_submatrix(space)
            row_a, col_b = gauss_keys(space, cert)
            for u in valid_qs(p):
                for a, row in zip(row_a, cert.entries):
                    for b, g in zip(col_b, row):
                        assert table[u * a % p][u * b % p] == g.galois(u).image_mod(ell, omega), (p, u, a, b)

    def test_no_bareiss_and_no_inverse(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the certificate computes in F_l only")

        monkeypatch.setattr(analysis, "_bareiss_echelon", forbidden)
        monkeypatch.setattr(CyclotomicNumber, "inverse", forbidden)
        for p in CERTIFIED_ORDERS:
            for q in valid_qs(p)[:2]:
                assert fullrank_submatrix(LensSpace(p, q)).nonzero, (p, q)


def _jacobi(a, b):
    from lenswrt.numtheory import jacobi_symbol

    return jacobi_symbol(a % b, b)


class TestRecoverSkein:
    def test_round_trip(self):
        rng = random.Random(99)
        space = LensSpace(5, 2)
        for _ in range(4):
            element = random_skein(5, rng)
            polys = [f_link(space, element, k).signed_body for k in range(5)]
            result = recover_skein(space, polys)
            assert result.a_form == element

    def test_zero_recovers_zero(self):
        space = LensSpace(5, 2)
        result = recover_skein(space, [LaurentPoly("z") for _ in range(5)])
        assert result.a_form is not None and result.a_form.is_zero()

    def test_rank_deficient(self):
        space = LensSpace(9, 1)
        with pytest.raises(RankDeficient):
            recover_skein(space, [LaurentPoly("z") for _ in range(9)])

    def test_inconsistent(self):
        rng = random.Random(100)
        space = LensSpace(5, 1)
        element = random_skein(5, rng)
        polys = [f_link(space, element, k).signed_body for k in range(5)]
        polys[0] = polys[0] + LaurentPoly("z", {0: 1})
        with pytest.raises(Inconsistent):
            recover_skein(space, polys)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            recover_skein(LensSpace(5, 1), [LaurentPoly("z")] * 3)

    @pytest.mark.parametrize("bad", [None, "x", 1, Fraction(1, 2)])
    def test_entry_must_be_a_laurent_poly(self, bad):
        # refused by its index before it is negated or read
        polys = [LaurentPoly("z")] * 3
        polys[2] = bad
        with pytest.raises(ValueError, match=re.escape(f"right-hand side entry 2 is {bad!r}, not a LaurentPoly")):
            recover_skein(LensSpace(3, 1), polys)
        with pytest.raises(ValueError, match="entry 0 is"):
            recover_skein(LensSpace(3, 1), [bad] * 3)

    def test_denominator_divisible_by_the_image_prime(self):
        # 1/l has no image mod l, the prime of the pivot-row image; each row
        # is mapped only after its denominators are cleared
        space = LensSpace(5, 2)
        ell = modular._modulus(1)[0]
        polys = [row[0].scale(Fraction(1, ell)) for row in build_f_matrix(space).entries]
        result = recover_skein(space, polys)
        assert result.z_components == (RationalFunction(z({0: Fraction(1, ell)})), RationalFunction(z({})),
                                       RationalFunction(z({})))
        assert result.a_form == SkeinElement(5, [LaurentPoly("A", {0: Fraction(1, ell)}), 0, 0])

    def test_rows_reach_the_image_cleared(self, monkeypatch):
        # _certified clears each row's denominators once: the image of the
        # 1/l right-hand side sees integral coefficients only
        space = LensSpace(5, 2)
        ell = modular._modulus(1)[0]
        polys = [row[0].scale(Fraction(1, ell)) for row in build_f_matrix(space).entries]
        denominators = set()
        find = analysis._image_pivot_rows

        def spy(rows, n, stop=None):
            denominators.update(c.denominator for row in rows for entry in row for c in entry.values())
            return find(rows, n, stop)

        monkeypatch.setattr(analysis, "_image_pivot_rows", spy)
        assert recover_skein(space, polys).z_components[0] == RationalFunction(z({0: Fraction(1, ell)}))
        assert denominators == {1}


class TestLambdaMembership:
    def test_kernel_lines_excluded(self):
        assert lambda_membership(KERNEL_9_1, 9) is False
        assert lambda_membership(KERNEL_9_4, 9) is False

    def test_unit_vectors_included(self):
        unit = (z({}), z({}), z({}), z({}), z({0: 1}))
        assert lambda_membership(unit, 9) is True

    def test_monomial_rescaling_allowed(self):
        vec = (z({2: 1}), z({2: 1, 11: 1}))  # z^2 * (1, 1 + z^9)
        assert lambda_membership(vec, 9) is True

    def test_support_mismatch_rejected(self):
        assert lambda_membership((z({0: 1}), z({1: 1})), 9) is False

    def test_rational_function_ratio_detected(self):
        # components proportional by (1 + z^9) / (1 - z^9): admissible
        a = z({0: 1, 9: 1})
        b = z({0: 1, 9: -1})
        assert lambda_membership((a * a, a * b), 9) is True

    def test_rational_function_components(self):
        # (1/(1+z), z^9/(1+z)): the ratio z^9 is a unit of the lattice
        d = z({0: 1, 1: 1})
        vec = (RationalFunction(z({0: 1}), d), RationalFunction(z({9: 1}), d))
        assert lambda_membership(vec, 9) is True

    def test_rational_function_components_rejected(self):
        # (1/(1+z), 1/(1+z^9)): the ratio (1+z^9)/(1+z) = 1 - z + ... + z^8
        vec = (RationalFunction(z({0: 1}), z({0: 1, 1: 1})), RationalFunction(z({0: 1}), z({0: 1, 9: 1})))
        assert lambda_membership(vec, 9) is False

    def test_irrational_coefficient_ratio_rejected(self):
        xi = root_of_unity(9, 1)
        assert lambda_membership((z({0: 1}), z({9: xi})), 9) is False


class TestInterpolation:
    def test_forward_samples_recovered(self):
        space = LensSpace(5, 2)
        c, k, prec = 1, 2, 300
        from lenswrt.wrt import eval_meridian

        with mpmath.workprec(prec):
            samples = [
                (r, eval_meridian(space, c, r, prec) * mpmath.sqrt(r))
                for r in range(2, 160)
                if r % 5 == k
            ]
        poly, residual = interpolate_f(space, samples, k, precision=prec)
        assert residual < 1e-20
        fp = f_poly(space, c, k)
        with mpmath.workprec(prec):
            scale = mpmath.mpc(0, fp.prefactor_sign) / mpmath.sqrt(2 * space.p)
            target = {e: scale * embed_complex(v, prec) for e, v in fp.body.terms.items()}
        for e in set(poly.terms) | set(target):
            got = complex(poly.coeff(e) or 0)
            want = complex(target.get(e, 0))
            assert abs(got - want) < 1e-6, e

    def test_zero_samples(self):
        space = LensSpace(5, 2)
        samples = [(r, 0j) for r in range(2, 160) if r % 5 == 2]
        poly, residual = interpolate_f(space, samples, 2)
        assert poly.is_zero() and residual == 0

    def test_non_integer_level_rejected(self):
        # a level of 7.9 was read as 7: the zero samples fitted the zero polynomial
        space = LensSpace(5, 2)
        samples = [(7.9 if r == 7 else r, 0j) for r in range(2, 160) if r % 5 == 2]
        with pytest.raises(TypeError):
            interpolate_f(space, samples, 2)

    def test_underdetermined(self):
        space = LensSpace(5, 2)
        samples = [(r, 0j) for r in (2, 7, 12)]
        with pytest.raises(UnderDetermined):
            interpolate_f(space, samples, 2)

    def test_truncated_window_rejected(self):
        # samples of z^4000 f at L(5,2): every term lies far above the support
        # window [-2, 22], and the fit inside it misses the samples it did not
        # use.  Every level puts z within pi/20 of 1, where a shift up to about
        # z^1000 still fits within the tolerance, so the shift is large.
        space = LensSpace(5, 2)
        from lenswrt.wrt import eval_meridian

        prec = 300
        with mpmath.workprec(prec):
            samples = [
                (r, eval_meridian(space, 1, r, prec) * mpmath.sqrt(r) * mpmath.expjpi(mpmath.mpf(8000) / (4 * 5 * r)))
                for r in range(2, 160)
                if r % 5 == 2
            ]
        with pytest.raises(BadConditioning, match="residual"):
            interpolate_f(space, samples, 2, precision=prec)

    def test_ill_conditioned_samples_rejected(self):
        # 32 oracle samples of L(5,2) fit to 2e-54 at 200 bits while the
        # coefficients are off by up to 1e12; at 300 bits they are right
        space = LensSpace(5, 2)
        c, k = 1, 1
        levels = [r for r in range(2, 200) if r % 5 == k][:32]
        fp = f_poly(space, c, k)
        for prec in (200, 300):
            with mpmath.workprec(prec):
                samples = [(r, jeffrey_oracle(space, c, r, prec) * mpmath.sqrt(r)) for r in levels]
                scale = mpmath.mpc(0, fp.prefactor_sign) / mpmath.sqrt(2 * space.p)
                target = {e: complex(scale * embed_complex(v, prec)) for e, v in fp.body.terms.items()}
            if prec == 200:
                with pytest.raises(BadConditioning):
                    interpolate_f(space, samples, k, precision=prec)
                continue
            poly, _ = interpolate_f(space, samples, k, precision=prec)
            for e in set(poly.terms) | set(target):
                assert abs(complex(poly.coeff(e)) - target.get(e, 0)) < 1e-6, e

    @pytest.mark.parametrize("index, bad", [(0, mpmath.nan), (-1, mpmath.nan), (3, mpmath.inf)],
                             ids=["nan-in-square-part", "nan-in-leftover", "inf"])
    def test_non_finite_sample_rejected(self, index, bad):
        # each position defeats a different check: a NaN in the square solve
        # makes every coefficient NaN with residual 0, a leftover level's NaN
        # never compares greater than the tolerance, and an inf makes the
        # tolerance, which scales with the largest sample, infinite
        space = LensSpace(5, 2)
        c, k, prec = 0, 1, 300
        levels = [r for r in range(2, 200) if r % 5 == k][:32]
        with mpmath.workprec(prec):
            samples = [(r, jeffrey_oracle(space, c, r, prec) * mpmath.sqrt(r)) for r in levels]
        r = levels[index]
        samples[index] = (r, mpmath.mpc(bad, 0))
        with pytest.raises(ValueError, match=f"sample at r={r} is not finite"):
            interpolate_f(space, samples, k, precision=prec)

    def test_newton_solve_matches_dense_lu(self):
        # reference: the full shifted Vandermonde system z_i^(lo+j) on the
        # width smallest levels, solved densely by LU at the working precision
        space = LensSpace(5, 2)
        c, k, prec, width = 1, 1, 300, 25
        samples = _oracle_samples(space, c, k, prec, 32)
        poly, _ = interpolate_f(space, samples, k, precision=prec)
        lo = int(12 * space.p * space.dedekind) - 2
        with mpmath.workprec(prec + 16 * width):
            nodes = [mpmath.expjpi(mpmath.mpf(2) / (4 * space.p * r)) for r, _ in samples[:width]]
            vmat = mpmath.matrix([[z ** (lo + j) for j in range(width)] for z in nodes])
            ref = mpmath.lu_solve(vmat, mpmath.matrix([v for _, v in samples[:width]]))
            scale = max(1, max(abs(v) for _, v in samples))
        # interpolate_f rounds its coefficients to complex, so the reference is rounded too
        for j in range(width):
            assert abs(poly.coeff(lo + j) - complex(ref[j])) <= 1e-30 * scale, lo + j

    @pytest.mark.parametrize("p, q, c, k, count", [
        (3, 1, 1, 2, 16),  # width 10
        (4, 1, 1, 3, 24),  # width 17; an odd color at p = 0 mod 4 is the zero polynomial
        (6, 1, 2, 5, 32),  # width 26
        (7, 1, 3, 4, 32),  # width 26
    ])
    def test_other_orders_recovered(self, p, q, c, k, count):
        space = LensSpace(p, q)
        poly, residual = interpolate_f(space, _oracle_samples(space, c, k, 300, count), k, precision=300)
        assert residual < 1e-20
        _assert_recovers_body(poly, space, c, k)

    def test_width_41_needs_600_bits(self):
        space = LensSpace(7, 2)
        c, k = 1, 1
        with pytest.raises(BadConditioning, match=r"^coefficients move by 3\.13e\+50 under a 2\^-300 change"):
            interpolate_f(space, _oracle_samples(space, c, k, 300, 48), k, precision=300)
        poly, _ = interpolate_f(space, _oracle_samples(space, c, k, 600, 48), k, precision=600)
        _assert_recovers_body(poly, space, c, k)

    def test_exact_width(self):
        # 25 samples leave no level over: the residual covers the square system alone
        space = LensSpace(5, 2)
        c, k, prec = 1, 1, 300
        samples = _oracle_samples(space, c, k, prec, 25)
        poly, residual = interpolate_f(space, samples, k, precision=prec)
        assert residual < 1e-60
        _assert_recovers_body(poly, space, c, k)
        with pytest.raises(UnderDetermined, match=r"^24 samples cannot determine 25 coefficients$"):
            interpolate_f(space, samples[:24], k, precision=prec)


def _oracle_samples(space, c, k, prec, count):
    """sqrt(r) w_r(mu_c) by jeffrey_oracle on the count smallest levels r = k mod p."""
    levels = [r for r in range(2, 2 + count * space.p) if r % space.p == k][:count]
    with mpmath.workprec(prec):
        return [(r, jeffrey_oracle(space, c, r, prec) * mpmath.sqrt(r)) for r in levels]


def _assert_recovers_body(poly, space, c, k):
    """poly is the f_poly body times sign i / sqrt(2p), to within 1e-6 per coefficient."""
    fp = f_poly(space, c, k)
    with mpmath.workprec(300):
        scale = mpmath.mpc(0, fp.prefactor_sign) / mpmath.sqrt(2 * space.p)
        target = {e: complex(scale * embed_complex(v, 300)) for e, v in fp.body.terms.items()}
    for e in set(poly.terms) | set(target):
        assert abs(poly.coeff(e) - target.get(e, 0)) < 1e-6, e


class TestColumnCollisions:
    def test_distinct_g_columns_bounded_by_squares(self):
        # The collision bound needs squarefree p: non-squarefree orders
        # (4, 8, 9, 12, ...) genuinely exceed it, e.g. p = 4 has three
        # distinct columns against #_4 = 2.  The rank bound 1 + #_p is
        # still observed at every order (see acceptance criterion 6).
        squarefree = [p for p in range(2, 31)
                      if all(p % (f * f) for f in range(2, 6))]
        for p in squarefree:
            bound = count_squares_mod(p)
            for q in valid_qs(p)[:3]:
                for sign in (1, -1):
                    columns = []
                    for c in range(p // 2 + 1):
                        columns.append(tuple(g_pm(p, q, c, k, sign) for k in range(1, p)))
                    distinct = []
                    for col in columns:
                        if not any(col == seen for seen in distinct):
                            distinct.append(col)
                    assert len(distinct) <= bound, (p, q, sign)


def euclid_only(monkeypatch) -> list:
    """Make the heuristic gcd prove nothing, so every vector is normalized
    by Euclid through CyclotomicNumber; returns the list of its gcds."""
    calls = []

    def laurent_gcd(a, b):
        calls.append((a, b))
        return plain_gcd(a, b)

    plain_gcd = analysis.laurent_gcd
    monkeypatch.setattr(analysis, "terms_gcd", lambda polys: None)
    monkeypatch.setattr(analysis, "laurent_gcd", laurent_gcd)
    return calls


@pytest.mark.parametrize("p, q", [(9, 1), (16, 3), (21, 2)])
def test_euclidean_normalization_keeps_the_kernel(monkeypatch, p, q):
    want = repr(kernel(LensSpace(p, q)))
    analysis._F_MATRICES.clear()  # kernel keeps its basis: prove it again
    calls = euclid_only(monkeypatch)
    assert repr(kernel(LensSpace(p, q))) == want
    assert calls


def test_euclidean_normalization_keeps_the_recovered_class(monkeypatch):
    space = LensSpace(7, 3)
    element = random_skein(7, random.Random(7))
    polys = [f_link(space, element, k).signed_body for k in range(7)]
    want = recover_skein(space, polys)
    calls = euclid_only(monkeypatch)
    got = recover_skein(space, polys)
    assert repr(got) == repr(want) and got.a_form == element
    assert calls


# SHA-256 over rank(build_f_matrix), the kernel basis and the certificate
# determinant (or "-" where there is no certificate) of every L(p,q) with
# 2 <= p <= 30 and q among its first three units: a faster exact path must
# give these answers byte for byte
EXACT_ANSWERS_SHA256 = "ba47637ca12d63997c71e26d5238293ad8c5bb01a197ac6259950b768929c64d"


def test_exact_answers_keep_their_digest():
    digest = hashlib.sha256()
    for p in range(2, 31):
        for q in valid_qs(p)[:3]:
            space = LensSpace(p, q)
            digest.update(f"{p},{q}:{rank(build_f_matrix(space))};".encode())
            digest.update(repr([vec.components for vec in kernel(space)]).encode())
            try:
                digest.update(repr(fullrank_submatrix(space).determinant).encode())
            except UnsupportedOrder:
                digest.update(b"-")
    assert digest.hexdigest() == EXACT_ANSWERS_SHA256
