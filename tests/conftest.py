"""Shared samplers for the test suite.

Everything random is seeded per test so failures replay exactly.
"""
import numpy as np
import pytest

from xdyn.validate import _bell_from, _params_from, _xstate_from


# One draw of each of the maps `xdyn validate` draws its blocks through, so
# the suite and the report see the same distributions.
def random_params(rng):
    return _params_from(rng.random(4))


def random_xstate(rng):
    return _xstate_from(rng.random(6))


def random_bell_diagonal(rng):
    return _bell_from(rng.random(3))


def max_abs(m) -> float:
    """Largest entrywise modulus."""
    return float(np.max(np.abs(m)))


def random_hermitian(rng, scale=1.0) -> np.ndarray:
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = scale * m
    return (m + m.conj().T) / 2.0


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
