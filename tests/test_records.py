"""The frozen records: construction by keyword, the __post_init__ checks,
equality and hashing over the fields, and no assignment."""

import pytest

from lenswrt import (
    FPolynomial,
    GaussSumSpec,
    LaurentMatrix,
    LaurentPoly,
    LensSpace,
    RationalFunction,
    RationalFunctionVector,
    RecoveredSkein,
    SL2Word,
    fullrank_submatrix,
)
from lenswrt.analysis import NumericPoly

Z = LaurentPoly("z", {1: 1})

# each record built by keyword, as the package builds them
RECORDS = [
    GaussSumSpec(p=7, a=9, b=-3),
    SL2Word(m=(3, 0), partial_matrices=(((3, -1), (1, 0)), ((0, -1), (1, 0))), weights=(0, 0)),
    FPolynomial(p=5, prefactor_sign=-1, body=Z),
    LaurentMatrix(entries=((Z,),)),
    RationalFunctionVector(components=(Z, LaurentPoly.one("z"))),
    fullrank_submatrix(LensSpace(5, 2)),
    RecoveredSkein(z_components=(RationalFunction(Z),), a_form=None),
    NumericPoly(var="z", terms={0: 1j}),
]


def test_gauss_spec_is_a_key():
    spec, same = GaussSumSpec(7, 9, -3), GaussSumSpec(7, 2, 4)
    assert spec == same and hash(spec) == hash(same)
    assert {spec: "x"}[same] == "x" and {same: "y"}[spec] == "y"
    assert spec != GaussSumSpec(7, 2, 5)
    assert repr(spec) == "GaussSumSpec(p=7, a=2, b=4)"


def test_post_init_checks():
    with pytest.raises(TypeError):
        GaussSumSpec(7, 1)
    with pytest.raises(ValueError):
        GaussSumSpec(1, 0, 0)
    with pytest.raises(ValueError):
        FPolynomial(p=5, prefactor_sign=0, body=Z)


def test_a_class_keeps_its_own_equality():
    assert FPolynomial(5, -1, Z) == FPolynomial(p=5, prefactor_sign=1, body=-Z)
    assert FPolynomial(5, 1, Z) != FPolynomial(5, 1, -Z)


@pytest.mark.parametrize("value", RECORDS, ids=lambda value: type(value).__name__)
def test_frozen_and_equal_over_the_fields(value):
    names = list(type(value).__annotations__)
    assert type(value)(*[getattr(value, name) for name in names]) == value
    assert type(value)(**{name: getattr(value, name) for name in names}) == value
    assert value != object()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
