"""Acceptance suite: runs every criterion at its stated tolerance and
prints one pass/fail line per criterion (pytest -s shows them live)."""

import pytest

from lenswrt import selftest
from lenswrt.analysis import RationalFunctionVector
from lenswrt.laurent import LaurentPoly


# Each criterion's detail line, byte for byte: a criterion that checks less
# (fewer forms, fewer spaces, a different worst case) changes its detail.
DETAILS = {
    1: "G_2(1,1) = 2",
    2: "22 (p,q,c) families identically zero",
    3: "worst |diff| = 4.102e-19",
    4: "100 random skein elements checked",
    5: "full rank at all 47 (p,q)",
    6: "L(4,1)=2 L(4,3)=2 L(8,1)=3 L(8,3)=3 L(9,1)=4 L(9,2)=4 L(12,1)=4 L(12,5)=4 L(15,1)=6 L(15,2)=6 "
       "L(16,1)=4 L(16,3)=4 L(21,1)=8 L(21,2)=8 L(25,1)=11 L(25,2)=11",
    7: "rank L(9,1) = 4, rank L(9,4) = 4",
    8: "both generators match (in fact literally)",
    9: "kernel lines rejected, unit vectors admitted",
    10: "15 random round trips exact",
    11: "all identities exact for p <= 50",
    12: "all certificates nonzero; 35026 closed forms verified",
}


def _run(number):
    entry = next(c for c in selftest.CRITERIA if c[0] == number)
    _, title, fn = entry
    ok, detail = fn()
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {title} -- {detail}")
    assert ok, f"criterion {number} failed: {detail}"
    assert detail == DETAILS[number]


def test_criterion_01_gauss_base_case():
    _run(1)


def test_criterion_02_mod4_vanishing():
    _run(2)


def test_criterion_03_oracle_equivalence():
    _run(3)


def test_criterion_03_names_the_first_failure_in_color_order(monkeypatch):
    # the sweep evaluates level by level, so (c, r) = (1, 5) is evaluated
    # before (0, 30); the detail still names the first in (c, r) order
    oracle = selftest.jeffrey_oracle
    failing = {(2, 1, 0, 30), (2, 1, 1, 5)}

    def stand_in(space, c, r, precision):
        value = oracle(space, c, r, precision)
        return value + 1 if (space.p, space.q, c, r) in failing else value

    monkeypatch.setattr(selftest, "jeffrey_oracle", stand_in)
    assert selftest.check_oracle_equivalence() == (False, "|diff| = 1.000e+00 at (p,q,c,r)=(2,1,0,30)")


def test_criterion_04_conjugation_symmetry():
    _run(4)


def test_criterion_05_full_rank_orders():
    _run(5)


def test_criterion_06_deficient_orders():
    _run(6)


def test_criterion_07_rank_four_at_nine():
    _run(7)


def test_criterion_08_kernel_generators():
    _run(8)


def _kernel_returning(make_vector):
    targets = {1: selftest.KERNEL_TARGET_9_1, 4: selftest.KERNEL_TARGET_9_4}
    return lambda space: [RationalFunctionVector(make_vector(targets[space.q]))]


@pytest.mark.parametrize("make_vector", [
    lambda target: tuple(c.shift(1) for c in target),  # the generator times z: same line, not normalized
    lambda target: (LaurentPoly("z"),) * len(target),  # the zero vector
], ids=["times-z", "zero"])
def test_criterion_08_rejects_other_generators(monkeypatch, make_vector):
    monkeypatch.setattr(selftest, "kernel", _kernel_returning(make_vector))
    ok, detail = selftest.check_kernel_vectors()
    assert not ok, detail


def test_criterion_09_lattice_obstruction():
    _run(9)


def test_criterion_10_recovery_round_trip():
    _run(10)


def test_criterion_11_number_theory_oracles():
    _run(11)


def test_criterion_12_certificates_and_closed_forms():
    _run(12)
