"""Property tests of the exact coefficient domain and its JSON codec."""

import json
import math
import random
from fractions import Fraction

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lenswrt.codec import coeff_from_json, coeff_to_json, poly_from_json, poly_to_json
from lenswrt.cyclotomic import CyclotomicNumber, _nontrivial_conjugates
from lenswrt.laurent import LaurentPoly
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
    # the inverse's product of the nontrivial Galois conjugates, built along
    # the unit group's orbits (not cyclic at 8, 12, 15 and 105), against one
    # conjugate at a time
    rng = random.Random(order)
    x = CyclotomicNumber(order, [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(order)])
    assert not x.is_zero()
    plain = CyclotomicNumber.from_rational(1, order)
    for u in range(2, order):
        if math.gcd(u, order) == 1:
            plain = plain * x.galois(u)
    assert _nontrivial_conjugates(x) == plain
    assert x * x.inverse() == 1


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


def test_fraction_input_is_kept_exact():
    x = CyclotomicNumber(6, [Fraction(1, 2), Fraction(1, 3)])
    assert x.coeffs[:2] == (Fraction(1, 2), Fraction(1, 3))
    assert x * 6 == CyclotomicNumber(6, [3, 2])
