"""Shared samplers for the test suite.

Everything random is seeded per test so failures replay exactly.
"""
import numpy as np
import pytest

# The samplers `xdyn validate` draws from, so the suite and the report see
# the same distributions.
from xdyn.validate import _random_bell_diagonal as random_bell_diagonal
from xdyn.validate import _random_params as random_params
from xdyn.validate import _random_xstate as random_xstate


def random_hermitian(rng, scale=1.0) -> np.ndarray:
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = scale * m
    return (m + m.conj().T) / 2.0


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
