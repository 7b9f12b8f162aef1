"""Checks for the hand-rolled matrix exponential and the small matrix helpers.

expm arbitrates every closed form for the propagator and the evolved
state, so it is itself checked three ways: frozen exact cases, a
third-party reference (scipy.linalg.expm), and algebraic properties on
seeded random draws.
"""
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from xdyn import InvalidInputError, expm, trace_product
from xdyn.linalg import ID4, PAULI_X, PAULI_Z

from conftest import max_abs, random_hermitian


def test_expm_zero_is_identity():
    assert max_abs(expm(np.zeros((4, 4))) - ID4) == 0.0


def test_expm_diagonal_frozen():
    m = np.diag([0.3, -0.2, 0.1, 0.0]).astype(complex)
    expected = np.diag(
        [1.3498588075760032, 0.8187307530779818, 1.1051709180756477, 1.0]
    ).astype(complex)
    assert max_abs(expm(m) - expected) < 1e-12


def test_expm_nilpotent_frozen():
    n = np.zeros((4, 4), dtype=complex)
    n[0, 1] = n[1, 2] = n[2, 3] = 1.0
    expected = np.array(
        [
            [1.0, 1.0, 0.5, 0.16666666666666666],
            [0.0, 1.0, 1.0, 0.5],
            [0.0, 0.0, 1.0, 1.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )
    assert max_abs(expm(n) - expected) < 1e-15


def test_expm_pauli_rotation_frozen():
    # exp(-i theta X x I) = cos(theta) I - i sin(theta) X x I
    theta = 0.7
    m = -1j * theta * np.kron(PAULI_X, np.eye(2))
    expected = 0.7648421872844885 * ID4 - 1j * 0.644217687237691 * np.kron(PAULI_X, np.eye(2))
    assert max_abs(expm(m) - expected) < 1e-14


def test_expm_z_quarter_turn_frozen():
    m = -1j * (math.pi / 2.0) * np.kron(PAULI_Z, np.eye(2))
    expected = np.diag([-1j, -1j, 1j, 1j])
    assert max_abs(expm(m) - expected) < 1e-14


def test_expm_matches_scipy_on_random_draws(rng):
    worst = 0.0
    for _ in range(200):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m *= rng.uniform(0.1, 2.0)
        worst = max(worst, max_abs(expm(m) - scipy.linalg.expm(m)))
    assert worst < 1e-10


def test_expm_antihermitian_is_unitary(rng):
    for _ in range(100):
        h = random_hermitian(rng, scale=3.0)
        u = expm(-1j * h)
        assert max_abs(u @ u.conj().T - ID4) < 1e-11


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_expm_inverse_property(seed):
    """exp(A) exp(-A) = I for bounded draws."""
    r = np.random.default_rng(seed)
    m = r.normal(size=(4, 4)) + 1j * r.normal(size=(4, 4))
    prod = expm(m) @ expm(-m)
    assert max_abs(prod - ID4) < 1e-12


def test_expm_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        expm(np.zeros((3, 3)))
    with pytest.raises(InvalidInputError):
        expm(np.full((4, 4), np.nan))


def test_trace_product_matches_direct(rng):
    for _ in range(100):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert abs(trace_product(a, b) - np.trace(a @ b)) < 1e-12
