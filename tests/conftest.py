"""Fixtures shared by every test module."""

import pytest

from lenswrt import analysis


@pytest.fixture(autouse=True)
def fresh_f_matrices():
    """Each test builds its own f-matrices, so no test reads a kernel basis
    that another test proved."""
    analysis._F_MATRICES.clear()
    yield
    analysis._F_MATRICES.clear()
