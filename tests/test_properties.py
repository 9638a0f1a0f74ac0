"""Property tests of the exact coefficient domain, its packed products, its
JSON codec, the fraction-free elimination, the row products of its proof
and the normalization of its int kernel vectors."""

import json
import math
import random
from fractions import Fraction
from unittest import mock

import mpmath
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lenswrt.codec import coeff_from_json, coeff_to_json, poly_from_json, poly_to_json
from lenswrt.cyclotomic import (
    CyclotomicNumber,
    _convolve,
    _poly_divmod_int,
    _reduce,
    cyclotomic_polynomial,
    embed_complex,
)
from lenswrt.gauss import GaussSumSpec, gauss_sum
from lenswrt.analysis import (
    RationalFunctionVector,
    _bareiss_echelon,
    _int_normalized,
    _normalize_kernel_vector,
    _refuting_row,
    _row_times,
)
from lenswrt import laurent
from lenswrt.laurent import LaurentPoly, terms_divexact, terms_divmod, terms_gcd, terms_mul
from lenswrt.skein import SkeinElement

PROPERTY = settings(deadline=None, max_examples=30, derandomize=True, database=None)
ORDERS = (2, 3, 5, 7, 11, 13, 4, 8, 9, 12, 15, 26, 105)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)


def elements(order: int):
    return st.lists(rationals, max_size=order).map(lambda vec: CyclotomicNumber(order, vec))


def triples(order: int):
    return st.tuples(elements(order), elements(order), elements(order))


def polys(order: int, var: str = "z"):
    return st.dictionaries(st.integers(-4, 4), elements(order), max_size=4).map(
        lambda terms: LaurentPoly(var, terms)
    )


def plain_json(document):
    return json.loads(json.dumps(document))


@PROPERTY
@given(st.sampled_from(ORDERS).flatmap(triples))
def test_ring_axioms(abc):
    a, b, c = abc
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c
    assert (a - a).is_zero() and a + 0 == a and a * 1 == a


@PROPERTY
@given(st.sampled_from(ORDERS).flatmap(elements))
def test_inverse(x):
    assume(not x.is_zero())
    assert x * x.inverse() == 1
    assert x.inverse().inverse() == x


@pytest.mark.parametrize("order", ORDERS + (97,))
def test_conjugates_by_doubling_equal_the_plain_product(order):
    # the inverse, the product of the nontrivial Galois conjugates over the
    # norm, at every unit group of ORDERS (not cyclic at 8, 12, 15 and 105)
    # and at 97, on a dense number
    rng = random.Random(order)
    x = CyclotomicNumber(order, [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(order)])
    assert not x.is_zero()
    assert x * x.inverse() == 1
    # at 97 and 105 the inverse has numerators of 958 and 474 bits, and its
    # own inverse takes about 50 and 1.5 s (test_inverse covers 105)
    if order < 97:
        assert x.inverse().inverse() == x


@PROPERTY
@given(st.sampled_from(ORDERS).flatmap(elements), st.sampled_from((2, 3)))
def test_hash_agrees_with_equality_across_lift(x, factor):
    lifted = x.lift(x.order * factor)
    assert lifted == x and hash(lifted) == hash(x)
    assert CyclotomicNumber(x.order, x.coeffs) == x


@PROPERTY
@given(rationals, st.sampled_from(ORDERS))
def test_rationals_hash_like_int_and_fraction(value, order):
    x = CyclotomicNumber.from_rational(value, order)
    assert x == value and hash(x) == hash(value)
    if value.denominator == 1:
        assert x == int(value) and hash(x) == hash(int(value))


@PROPERTY
@given(st.sampled_from((1, 7, 12)).flatmap(lambda n: st.tuples(polys(n), polys(n))))
def test_divexact_inverts_multiplication(ab):
    a, b = ab
    assume(not b.is_zero())
    assert (a * b).divexact(b) == a


int_terms = st.dictionaries(st.integers(-3, 3), st.integers(-5, 5).filter(bool), max_size=3)


def square_matrices(entries):
    return st.integers(2, 4).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


def cofactor_determinant(rows):
    """Expansion along the first row, in LaurentPoly arithmetic."""
    if len(rows) == 1:
        return rows[0][0]
    total = LaurentPoly("z")
    for j, entry in enumerate(rows[0]):
        if entry:
            term = entry * cofactor_determinant([row[:j] + row[j + 1:] for row in rows[1:]])
            total = total - term if j % 2 else total + term
    return total


@PROPERTY
@given(st.one_of(
    square_matrices(int_terms),
    st.sampled_from((5, 7)).flatmap(lambda n: square_matrices(elements(n).map(lambda c: {0: c} if c else {}))),
))
def test_last_pivot_is_the_determinant(rows):
    # integer Laurent polynomials and Q(xi_5), Q(xi_7) constants: the last
    # Bareiss pivot times the swap sign is the determinant
    expected = cofactor_determinant([[LaurentPoly("z", entry) for entry in row] for row in rows])
    pivots, odd = _bareiss_echelon(rows)
    if len(pivots) < len(rows):
        assert expected.is_zero()
    else:
        last = LaurentPoly("z", rows[-1][-1])
        assert (-last if odd else last) == expected


@PROPERTY
@given(int_terms.filter(bool), int_terms.filter(bool), st.sampled_from((-3, -2, 2, 5)))
def test_inexact_integer_division_raises(g, h, lead):
    h[max(h)] = lead
    product = terms_mul(g, h)
    assert terms_divexact(product, h) == g
    product[max(product)] += 1  # lead no longer divides the leading coefficient
    with pytest.raises(ArithmeticError):
        terms_divmod(product, h)


@PROPERTY
@given(st.one_of(
    st.tuples(int_terms, st.dictionaries(st.integers(-3, 3), st.integers(-5, 5).filter(bool), min_size=2, max_size=3)),
    st.sampled_from((5, 7)).flatmap(lambda n: st.tuples(
        polys(n).map(lambda a: a.terms), polys(n).map(lambda a: a.terms).filter(lambda t: len(t) >= 2))),
), st.integers(-6, 6))
def test_division_with_a_remainder_raises(gh, m):
    # h has two terms or more, so it divides no monomial: g h + z^m leaves a
    # remainder, and an int h has leading coefficient 1, so only the remainder
    # can raise
    g, h = gh
    if all(type(c) is int for c in h.values()):
        h[max(h)] = 1
    num = terms_mul(g, h, {m: 1})
    with pytest.raises(ArithmeticError):
        terms_divexact(num, h)
    with pytest.raises(ArithmeticError):
        LaurentPoly("z", num).divexact(LaurentPoly("z", h))


@PROPERTY
@given(st.sampled_from(ORDERS).flatmap(elements))
def test_coefficient_json_round_trip(x):
    assert coeff_from_json(plain_json(coeff_to_json(x)), x.order) == x


@PROPERTY
@given(st.sampled_from(ORDERS).flatmap(polys))
def test_polynomial_json_round_trip(poly):
    order = math.lcm(1, *(c.order for _, c in poly.items()))
    assert poly_from_json("z", plain_json(poly_to_json(poly)), order) == poly


@PROPERTY
@given(st.sampled_from((2, 5, 8)).flatmap(
    lambda p: st.lists(polys(1, "A"), min_size=p // 2 + 1, max_size=p // 2 + 1).map(
        lambda coeffs: SkeinElement(p, coeffs))))
def test_skein_json_round_trip(element):
    assert SkeinElement.from_json(plain_json(element.to_json())) == element


# --- packed products ---------------------------------------------------------------


def schoolbook(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def int_vectors(draw, lengths=st.integers(1, 100)):
    """An integer vector of a drawn length and coefficient bit length 0..1000:
    dense, all zero, a single nonzero coefficient, or every coefficient
    +-(2^bits - 1) with one sign, so that the product of two such vectors
    meets the slot bound max|a| max|b| min(len a, len b) exactly."""
    n = draw(lengths)
    bits = draw(st.integers(0, 1000))
    shape = draw(st.sampled_from(("dense", "dense", "zero", "single", "extreme")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    top = (1 << bits) - 1
    if shape == "extreme":
        return [rng.choice((top, -top))] * n
    vec = [0] * n
    if shape == "single":
        vec[rng.randrange(n)] = rng.randint(-top, top)
    elif shape == "dense":
        vec = [rng.randint(-top, top) for _ in range(n)]
    return vec


@settings(deadline=None, max_examples=150, derandomize=True, database=None)
@given(int_vectors(), int_vectors())
def test_packed_convolution_equals_the_schoolbook_one(a, b):
    # the slots of the one packed product are the product's coefficients,
    # signed, in either operand order
    want = schoolbook(a, b)
    assert _convolve(a, b) == want
    assert _convolve(tuple(b), tuple(a)) == want


def test_extreme_products_meet_the_slot_bound():
    # one coefficient of each product is +-max|a| max|b| min(len a, len b),
    # the largest the slot width admits
    for n, bits in ((22, 8), (22, 25), (22, 40), (28, 100), (7, 123), (96, 300)):
        top = (1 << bits) - 1
        for sa in (1, -1):
            for sb in (1, -1):
                a, b = [sa * top] * n, [sb * top] * (n + 3)
                want = schoolbook(a, b)
                assert max(map(abs, want)) == top * top * n
                assert _convolve(a, b) == want


def reference_product(order: int, a, b) -> tuple[int, ...]:
    """The numerator of a * b: the schoolbook convolution, then its
    remainder by Phi_order, padded to phi(order) coefficients."""
    phi = list(cyclotomic_polynomial(order))
    _, rem = _poly_divmod_int(schoolbook(a, b), phi)
    return tuple(rem + [0] * (len(phi) - 1 - len(rem)))


PACKED_ORDERS = (23, 29, 46, 97)


@settings(deadline=None, max_examples=40, derandomize=True, database=None)
@given(st.sampled_from(PACKED_ORDERS).flatmap(
    lambda n: st.tuples(st.just(n), *[int_vectors(st.just(len(cyclotomic_polynomial(n)) - 1))] * 4)))
def test_products_above_the_packing_threshold(case):
    # products of long numbers (phi(N) up to 96 integer coefficients of up
    # to 1000 bits, already reduced), every one through _convolve, against
    # the reference
    n, a, b, c, d = case
    x, y, u, v = (CyclotomicNumber(n, vec) for vec in (a, b, c, d))
    assert (x * y)._num == reference_product(n, a, b)
    assert (u * v)._num == reference_product(n, c, d)


def test_fraction_input_is_kept_exact():
    x = CyclotomicNumber(6, [Fraction(1, 2), Fraction(1, 3)])
    assert x.coeffs[:2] == (Fraction(1, 2), Fraction(1, 3))
    assert x * 6 == CyclotomicNumber(6, [3, 2])


def test_reduce_equals_the_remainder_of_dividing_by_phi():
    # the reduction folds by xi^(N/2) = -1 at an even N before it divides;
    # the reference folds by xi^N = 1 and divides plainly by Phi_N
    rng = random.Random(130)
    for n in range(1, 131):
        phi = cyclotomic_polynomial(n)
        for length in (0, 1, n, 2 * n + 1, 3 * n + 1):
            vec = [rng.randint(-2**40, 2**40) for _ in range(length)]
            folded = [sum(vec[i::n]) for i in range(n)]
            _, rem = _poly_divmod_int(folded, list(phi))
            expected = rem + [0] * (len(phi) - 1 - len(rem))
            assert _reduce(n, list(vec)) == expected, (n, length)


def test_gauss_sum_equals_the_validated_construction():
    for p in range(2, 41):
        for a in range(p):
            for b in range(p):
                counts = [0] * p
                for n in range(p):
                    counts[(a * n * n + b * n) % p] += 1
                assert gauss_sum(GaussSumSpec(p, a, b)) == CyclotomicNumber(p, counts), (p, a, b)


def _plain_embed(x, precision):
    # embed_complex without the root table: one expjpi per coefficient
    with mpmath.workprec(precision):
        total = mpmath.mpc(0)
        for j, c in enumerate(x._num):
            if c:
                cf = mpmath.mpf(c) if x._den == 1 else mpmath.mpf(c) / x._den
                total += cf * mpmath.expjpi(mpmath.mpf(2 * j) / x.order)
        return total


@pytest.mark.parametrize("order", ORDERS)
def test_embedding_equals_the_uncached_sum(order):
    rng = random.Random(order)
    values = [
        CyclotomicNumber(order, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(order)]),
        CyclotomicNumber(order, [rng.randint(-9, 9) for _ in range(order)]),
        gauss_sum(GaussSumSpec(order, 1, 1)),
    ]
    for precision in (53, 64, 256):
        for x in values:
            if not x.is_rational():
                assert embed_complex(x, precision) == _plain_embed(x, precision)


@pytest.mark.parametrize("order", (1, 2, 12, 15, 20, 46))
def test_embedding_over_a_denominator_equals_the_uncached_sum(order):
    # rationals (orders 1 and 2) included, every value over a den != 1 and
    # most coefficients rounded before the division by it
    rng = random.Random(order)
    values = [
        CyclotomicNumber(order, [Fraction(rng.randint(-10**30, 10**30), rng.randint(2, 10**20)) for _ in range(order)]),
        CyclotomicNumber(order, [Fraction(rng.randint(-9, 9), rng.randint(2, 9)) for _ in range(order)]),
    ]
    for precision in (53, 64, 256):
        for x in values:
            assert x.denominator != 1
            assert embed_complex(x, precision) == _plain_embed(x, precision)


# --- row products -----------------------------------------------------------------


def reference_row_times(row, x) -> dict:
    """sum_c row[c] x[c] with one product and one sum per pair of terms."""
    total = {}
    for a, v in zip(row, x):
        for e1, c1 in a.items():
            for e2, c2 in v.items():
                e = e1 + e2
                total[e] = total[e] + c1 * c2 if e in total else c1 * c2
    return {e: c for e, c in total.items() if c}


def same_terms(got: dict, want: dict) -> bool:
    """Equal term dicts, each value of the same type and, for a
    CyclotomicNumber, written in the same order."""
    return set(got) == set(want) and all(
        type(got[e]) is type(c) and got[e] == c and getattr(got[e], "order", 0) == getattr(c, "order", 0)
        for e, c in want.items()
    )


def coefficients(kind: str, n: int):
    """Nonzero coefficients of one kind: int, rational (denominators up to 5),
    or cyclotomic of any order d > 2 dividing n."""
    if kind == "int":
        return st.integers(-6, 6).filter(bool)
    orders = (1,) if kind == "rational" else tuple(d for d in range(3, n + 1) if n % d == 0)
    # a nonzero constant term keeps most draws nonzero
    return st.sampled_from(orders).flatmap(
        lambda order: st.tuples(rationals.filter(bool), st.lists(rationals, max_size=order - 1)).map(
            lambda parts: CyclotomicNumber(order, [parts[0], *parts[1]])
        )
    ).filter(bool)


def term_rows(kind: str, n: int, ncols: int):
    # few exponents, so that several products meet at one exponent
    entry = st.dictionaries(st.integers(-1, 1), coefficients(kind, n), max_size=2)
    return st.lists(entry, min_size=ncols, max_size=ncols)


@st.composite
def row_products(draw):
    """(row kind, vector kind, n, rows, x): rows are int, or cyclotomic of
    mixed orders dividing n with denominators; x is int (with int rows
    only), rational or cyclotomic."""
    n = draw(st.sampled_from((4, 6, 9, 12, 15)))
    row_kind = draw(st.sampled_from(("int", "cyclotomic")))
    vec_kinds = ("int", "rational", "cyclotomic") if row_kind == "int" else ("rational", "cyclotomic")
    vec_kind = draw(st.sampled_from(vec_kinds))
    ncols = draw(st.integers(1, 3))
    rows = draw(st.lists(term_rows(row_kind, n, ncols), min_size=1, max_size=3))
    x = draw(term_rows(vec_kind, n, ncols))
    return row_kind, vec_kind, n, rows, x


ROW_PRODUCTS = settings(deadline=None, max_examples=40, derandomize=True, database=None)


@ROW_PRODUCTS
@given(row_products())
def test_row_times_equals_the_product_per_term(case):
    _, _, _, rows, x = case
    for row in rows:
        assert same_terms(_row_times(row, x), reference_row_times(row, x))


def negated(terms: dict) -> dict:
    return {e: -c for e, c in terms.items()}


@ROW_PRODUCTS
@given(row_products(), st.data())
def test_refuting_row_is_the_first_row_with_a_nonzero_product(case, data):
    # one more column makes the first row annihilate the vector: a
    # cyclotomic row gets -(row . x) against a component 1, an int row 1
    # against a component -(row . x), so a rational x stays rational; the
    # other rows are int multiples of it (annihilating) or drawn ones
    # (refuting, mostly), in a drawn order
    row_kind, vec_kind, n, rows, x = case
    assume(vec_kind != "int")
    first = rows[0]
    s = reference_row_times(first, x)
    if row_kind == "int":
        x = x + [negated(s)]
        first = first + [{0: 1}]
    else:
        x = x + [{0: CyclotomicNumber.from_rational(1)}]
        first = first + [negated(s)]
    assert not reference_row_times(first, x)
    checked = [first]
    for multiple in data.draw(st.lists(st.booleans(), min_size=1, max_size=3)):
        if multiple:
            m = data.draw(st.integers(-3, 3).filter(bool))
            checked.append([{e: m * c for e, c in entry.items()} for entry in first])
        else:
            checked.append(data.draw(term_rows(row_kind, n, len(first))))
    order = data.draw(st.permutations(range(len(checked))))
    checked = [checked[i] for i in order]
    vec = RationalFunctionVector(tuple(LaurentPoly("z", terms) for terms in x))
    terms = [v.terms for v in vec.components]
    expected = next((k for k, row in enumerate(checked) if reference_row_times(row, terms)), None)
    assert _refuting_row(checked, terms) == expected
    for row in checked:
        assert same_terms(_row_times(row, terms), reference_row_times(row, terms))


BIG = st.one_of(st.integers(-9, 9), st.integers(-(1 << 200), 1 << 200)).filter(bool)
W_POLYS = st.dictionaries(st.integers(0, 3), BIG, min_size=1, max_size=3)


@st.composite
def int_lines(draw):
    """Int vectors g u in Z[z, 1/z]: per component a zero, a monomial, or
    the common factor g(z^s) times a cofactor u(z^s), shifted into its own
    coset of s; coefficients reach 200 bits.  g = w - m with cofactor 1 is
    the case that needs the whole bound: at any xi in (m, 2m], g(xi) <=
    xi/2 reads back as a constant, a wrong gcd 1."""
    s = draw(st.integers(1, 5))
    g = draw(st.one_of(W_POLYS, st.integers(2, 1 << 200).map(lambda m: {0: -m, 1: 1})))
    cofactors = st.one_of(W_POLYS, st.just({0: 1}))
    x = []
    for kind in draw(st.lists(st.sampled_from(("zero", "monomial", "multiple")), min_size=1, max_size=5)):
        shift = draw(st.integers(-6, 6))
        if kind == "zero":
            x.append({})
        elif kind == "monomial":
            x.append({shift: draw(BIG)})
        else:
            x.append({shift + s * e: c for e, c in terms_mul(g, draw(cofactors)).items()})
    assume(any(x))
    return x


@settings(deadline=None, max_examples=300, derandomize=True, database=None)
@given(int_lines())
def test_int_normalization_equals_the_euclidean_one(x):
    got = _int_normalized(x)
    want = _normalize_kernel_vector([LaurentPoly("z", t) for t in x])
    assert got is not None
    assert got == want and repr(got) == repr(want)


@PROPERTY
@given(W_POLYS, BIG, st.integers(1, 3))
def test_a_wrong_first_candidate_is_refused(g, g0, k):
    # with xi the first point, a = g (w + 1) and b = g (w + r), r = 1 + k (xi + 1),
    # have gcd(a(xi), b(xi)) = |a(xi)|: the first candidate is pp(a), which
    # does not divide b, so a second point must be tried
    g = {**g, 0: g0}
    a = terms_mul(g, {0: 1, 1: 1})
    points = []

    def value(terms, x):
        points.append(x)
        return plain_value(terms, x)

    plain_value = laurent._value
    with mock.patch.object(laurent, "_value", value):
        terms_gcd([a])
        b = terms_mul(g, {0: 1 + k * (points[0] + 1), 1: 1})
        points.clear()
        found = terms_gcd([a, b])
    assert len(set(points)) > 1
    content = math.gcd(*g.values()) * (1 if g[max(g)] > 0 else -1)
    primitive = {e: c // content for e, c in g.items()}
    assert found == (primitive, [terms_divexact(a, primitive), terms_divexact(b, primitive)])
