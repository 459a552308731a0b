"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from moniground import tensor as T


@pytest.fixture
def float64(monkeypatch):
    """Run the test with `tensor.DTYPE` float64. Finite-difference checks
    need its precision, as do comparisons with float64 references at
    tolerances near float64's roundoff; every tensor the test builds,
    parameters included, takes the dtype."""
    monkeypatch.setattr(T, "DTYPE", np.float64)
