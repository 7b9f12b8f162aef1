"""Dense complex 4x4 matrix helpers and the series matrix exponential.

``expm`` (scaling and squaring with a truncated Taylor series) is the
referee every closed form for the propagator and the evolved state is
checked against, so it shares no code with the closed forms it
arbitrates.  Spectra of matrices that are not X-shaped come from numpy's
LAPACK ``eigvalsh``, which likewise shares none; the in-house Jacobi
solver that used to compute them is gone, with the exception it raised
when its sweeps ran out.  Matrices are plain numpy arrays of shape (4, 4);
the dimension is fixed because the physics upstream never needs anything
else.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

DIM = 4

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)

# The two-qubit Pauli products the Hamiltonian and the Bloch observables
# are written in; first factor acts on the first qubit.
PAULI_XX = np.kron(PAULI_X, PAULI_X)
PAULI_YY = np.kron(PAULI_Y, PAULI_Y)
PAULI_ZZ = np.kron(PAULI_Z, PAULI_Z)
PAULI_ZI = np.kron(PAULI_Z, ID2)
PAULI_IZ = np.kron(ID2, PAULI_Z)

# Default truncation target of expm.
DEFAULT_TOL = 1e-12


def as_matrix4(m, where: str = "matrix") -> np.ndarray:
    """Coerce input to a complex (4, 4) array, rejecting bad shapes and NaNs.

    Args:
        m: array-like expected to hold a 4x4 complex matrix.
        where: label used in error messages.

    Returns:
        A fresh complex128 numpy array of shape (4, 4).
    """
    a = np.array(m, dtype=complex)
    if a.shape != (DIM, DIM):
        raise InvalidInputError(f"{where}: expected shape (4, 4), got {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise InvalidInputError(f"{where}: entries must be finite")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def max_abs(m: np.ndarray) -> float:
    """Max-norm: largest entrywise modulus."""
    return float(np.max(np.abs(m)))


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def expm(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Taylor core.

    The input is scaled by 2**s until its Frobenius norm is at most 1/2,
    the series is summed to enough terms that the truncation remainder is
    below tol / 2**s (so the squaring stage cannot amplify it past tol for
    the norm-preserving inputs this package cares about), and the result
    is squared back up.

    Args:
        m: 4x4 complex matrix.
        tol: truncation target, must be positive.

    Returns:
        exp(m) as a 4x4 complex array.
    """
    a = as_matrix4(m, "expm")
    if not (tol > 0):
        raise InvalidInputError(f"expm: tol must be positive, got {tol}")

    norm = frobenius(a)
    s = 0
    if norm > 0.5:
        s = int(math.ceil(math.log2(norm / 0.5)))
    scaled = a / (2.0**s)
    theta = norm / (2.0**s)

    # Remainder of the truncated series: theta^(n+1) / ((n+1)! (1 - theta)).
    target = tol / (2.0**s)
    n_terms = 1
    remainder = theta**2 / (2.0 * (1.0 - theta))
    while remainder > target and n_terms < 40:
        n_terms += 1
        remainder *= theta / (n_terms + 1)

    result = ID4.copy()
    for k in range(n_terms, 0, -1):
        result = ID4 + (scaled @ result) / k
    for _ in range(s):
        result = result @ result
    return result


def trace_product(a, b) -> complex:
    """Tr(a @ b) accumulated directly, without forming the product matrix."""
    return _trace_of_product(as_matrix4(a, "trace_product"), as_matrix4(b, "trace_product"))


def _trace_of_product(a: np.ndarray, b: np.ndarray) -> complex:
    # For operands already checked by as_matrix4 (or held by a DensityMatrix);
    # callers inside the package use it to skip a second coercion.
    return complex(np.einsum("ij,ji->", a, b))
