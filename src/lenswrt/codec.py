"""The JSON form of exact coefficients and Laurent polynomials.

A rational coefficient is [num, den].  Any other element of Q(xi_N) is
{"order": N, "coeffs": [[j, num, den], ...]}, listing its nonzero
power-basis values.  A polynomial is a sorted list of [exponent, num, den]
and [exponent, {cyclotomic}] entries.  The decoders check every shape and
raise ValueError, never KeyError or TypeError, on malformed input, such as
a key, a power or an exponent listed twice.  A document for order p holds only
elements of Q(xi_p), so a decoder is given p and rejects any order N that
does not divide it before Phi_N is built.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .cyclotomic import CyclotomicNumber
from .laurent import LaurentPoly


def coeff_terms_to_json(c: CyclotomicNumber) -> list:
    """[[j, num, den], ...] over the nonzero power-basis values of c."""
    return [[j, v.numerator, v.denominator] for j, v in enumerate(c.coeffs) if v]


def coeff_to_json(c: CyclotomicNumber):
    """Rational -> [num, den]; otherwise {"order": N, "coeffs": [[j, num, den], ...]}."""
    if c.is_rational():
        v = c.coeffs[0]
        return [v.numerator, v.denominator]
    return {"order": c.order, "coeffs": coeff_terms_to_json(c)}


def poly_to_json(poly: LaurentPoly) -> list:
    """Sorted [exponent, num, den] triples, or [exponent, {cyclotomic}] entries."""
    return [[e, *coeff_to_json(c)] if c.is_rational() else [e, coeff_to_json(c)]
            for e, c in poly.items()]


def field(data, key: str, kind: type | None = None):
    """data[key] of a JSON object, checked to be of the given kind."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with key {key!r}, got {_show(data)}")
    if key not in data:
        raise ValueError(f"missing key {key!r}")
    return _checked(data[key], kind, key)


def _checked(value, kind: type | None, what: str):
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ValueError(f"{what} must be of JSON type {kind.__name__}, got {_show(value)}")
    return value


def _show(value) -> str:
    text = json.dumps(value, default=repr)
    return text if len(text) <= 60 else text[:57] + "..."


def _rational(num, den) -> Fraction:
    num, den = _checked(num, int, "numerator"), _checked(den, int, "denominator")
    if den == 0:
        raise ValueError(f"zero denominator in {num}/{den}")
    return Fraction(num, den)


def _entry(value, size: int, what: str) -> list:
    if not isinstance(value, list) or len(value) != size:
        raise ValueError(f"{what} must be a list of {size} values, got {_show(value)}")
    return value


def coeff_from_json(data, p: int) -> CyclotomicNumber:
    """Inverse of coeff_to_json, for a coefficient in Q(xi_p): its order must divide p."""
    if not isinstance(data, dict):
        return CyclotomicNumber.from_rational(_rational(*_entry(data, 2, "a rational coefficient")))
    order = field(data, "order", int)
    if not 0 < order <= p or p % order:
        raise ValueError(f"coefficient order {order} does not divide {p}")
    values = {}
    for term in field(data, "coeffs", list):
        j, num, den = _entry(term, 3, "a cyclotomic term [j, num, den]")
        if not 0 <= _checked(j, int, "a power") < order:
            raise ValueError(f"power {j} outside 0..{order - 1}")
        if j in values:
            raise ValueError(f"power {j} listed twice")
        values[j] = _rational(num, den)
    return CyclotomicNumber(order, [values.get(j, 0) for j in range(order)])


def poly_from_json(var: str, data, p: int) -> LaurentPoly:
    """Inverse of poly_to_json, in the variable var, with coefficients in Q(xi_p)."""
    terms = {}
    for entry in _checked(data, list, "a polynomial"):
        if isinstance(entry, list) and len(entry) == 3:
            c = coeff_from_json(entry[1:], p)
        elif isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], dict):
            c = coeff_from_json(entry[1], p)
        else:
            raise ValueError(f"a polynomial term is [e, num, den] or [e, {{...}}], got {_show(entry)}")
        e = _checked(entry[0], int, "an exponent")
        if e in terms:
            raise ValueError(f"exponent {e} listed twice")
        terms[e] = c
    return LaurentPoly(var, terms)


def load_json(path: str):
    """The JSON document in a file; ValueError when it cannot be read or parsed, or repeats a key."""
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None


def _unique_keys(pairs) -> dict:
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"key {key!r} listed twice")
        data[key] = value
    return data
