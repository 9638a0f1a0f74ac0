"""Fixtures shared by every test module."""

import pytest

from lenswrt import analysis


@pytest.fixture(autouse=True)
def fresh_f_matrices():
    """Each test builds its own f-matrices and descended rows, so no test
    reads a kernel basis that another test proved, or rows in an order
    that another test left."""
    analysis._F_MATRICES.clear()
    analysis._rows.cache_clear()
    yield
    analysis._F_MATRICES.clear()
    analysis._rows.cache_clear()
