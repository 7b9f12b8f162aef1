"""Dense complex 4x4 matrix helpers and the series matrix exponential.

``expm`` (scaling and squaring with a truncated Taylor series) is the
referee every closed form for the propagator and the evolved state is
checked against, so it shares no code with the closed forms it
arbitrates.  Matrices are numpy arrays of shape (4, 4), or stacks of
them of shape (..., 4, 4) that ``expm`` and the trace product treat one
matrix at a time; the dimension is fixed because the physics upstream
never needs anything else.
"""
from __future__ import annotations

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

# Truncation target of expm.
DEFAULT_TOL = 1e-12


def as_matrix4(m, where: str = "matrix") -> np.ndarray:
    """Coerce input to a complex (4, 4) array or stack, rejecting bad shapes and NaNs.

    Args:
        m: array-like holding a 4x4 complex matrix, or a stack of them
            of shape (..., 4, 4).
        where: label used in error messages.

    Returns:
        A fresh complex128 numpy array of shape (4, 4) or (..., 4, 4).
    """
    a = np.array(m, dtype=complex)
    if a.shape[-2:] != (DIM, DIM):
        raise InvalidInputError(f"{where}: expected shape (4, 4) or (..., 4, 4), got {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise InvalidInputError(f"{where}: entries must be finite")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def max_abs_each(m: np.ndarray) -> np.ndarray:
    """Max-norm of each matrix in a (..., 4, 4) stack."""
    return np.abs(m).max(axis=(-2, -1))


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Taylor core.

    Each matrix is scaled by its own 2**s until its Frobenius norm is at
    most 1/2, its series is summed to enough terms that the truncation
    remainder is below DEFAULT_TOL / 2**s (so the squaring stage cannot
    amplify it past DEFAULT_TOL for the norm-preserving inputs this
    package cares about), and the result is squared back up.  A stack of
    matrices is evaluated together: each Horner step and each squaring
    multiplies only the matrices whose own term count or scaling power
    still asks for it, so every matrix of a stack gets the bits it would
    get on its own and no product is computed to be thrown away.

    Args:
        m: 4x4 complex matrix, or a (..., 4, 4) stack of them.

    Returns:
        exp(m), of the shape of m.
    """
    a = as_matrix4(m, "expm")

    norm = np.linalg.norm(a, axis=(-2, -1))  # Frobenius
    s = np.where(norm > 0.5, np.ceil(np.log2(np.maximum(norm, 0.5) / 0.5)), 0.0)
    scale = np.ldexp(1.0, s.astype(int))  # 2**s, exactly
    scaled = a / scale[..., None, None]
    theta = norm / scale

    # Remainder of the truncated series: theta^(n+1) / ((n+1)! (1 - theta)).
    target = DEFAULT_TOL / scale
    n_terms = np.ones(np.shape(norm), dtype=int)
    remainder = np.float_power(theta, 2) / (2.0 * (1.0 - theta))  # libm pow, as ** is on a float
    while True:
        more = (remainder > target) & (n_terms < 40)
        if not more.any():
            break
        n_terms = n_terms + more
        remainder = remainder * (theta / (n_terms + 1))  # finished ones only shrink further

    result = np.broadcast_to(ID4, a.shape).copy()  # contiguous, so matmul takes BLAS
    for k in range(int(n_terms.max()), 0, -1):
        i = _rows(n_terms >= k)
        result[i] = ID4 + (scaled[i] @ result[i]) / k
    for j in range(int(s.max())):
        i = _rows(s > j)
        r = result[i]
        result[i] = r @ r
    return result


def _rows(mask: np.ndarray):
    # Index of the matrices a step of expm applies to: Ellipsis when it is all
    # of them, which copies nothing and takes a single (4, 4) matrix whole,
    # else the indices of those of a stack that are still at work.
    return ... if np.count_nonzero(mask) == mask.size else mask.nonzero()


def trace_product(a, b):
    """Tr(a @ b) accumulated directly, without forming the product matrix.

    A complex number for two matrices, an array of them when either
    operand is a stack.
    """
    return _trace_of_product(as_matrix4(a, "trace_product"), as_matrix4(b, "trace_product"))


def _trace_of_product(a: np.ndarray, b: np.ndarray):
    # For operands already checked by as_matrix4 (or held by a DensityMatrix);
    # callers inside the package use it to skip a second coercion.  A stack
    # sums each matrix's products in the order a single matrix does.
    tr = np.einsum("...ij,...ji->...", a, b)
    return complex(tr) if np.ndim(tr) == 0 else tr
