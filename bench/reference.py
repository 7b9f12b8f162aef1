"""Independent reference physics for checking xdyn outputs.

Nothing here imports xdyn.  The Hamiltonian is built from Pauli matrices
and propagated through numpy's LAPACK eigensolver,
U(t) = V diag(exp(-i E t)) V^dagger, so it shares no code with the closed
forms (xdyn.model, xdyn.dynamics) nor with xdyn's own referees
(xdyn.linalg.expm, the Jacobi solver).

Accuracy: eigh is backward stable, so E and V carry errors of order
eps * |H|.  The only error that grows with time is the phase E * t, which
is off by about eps * |H| * t.  Entries of U(t) and rho(t) are therefore
good to roughly 10 * eps * (1 + t * |H|).  Workload draws keep t * |H| at
or below TH_MAX = 1e4, where that bound is about 2e-11, and outputs are
compared at ABS_TOL = 1e-9, fifty times looser.
"""
from __future__ import annotations

import math

import numpy as np

TH_MAX = 1.0e4
ABS_TOL = 1.0e-9

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
XX = np.kron(SX, SX)
YY = np.kron(SY, SY)
ZZ = np.kron(SZ, SZ)
ZI = np.kron(SZ, I2)
IZ = np.kron(I2, SZ)


def hamiltonian(jx: float, jy: float, jz: float, field: float) -> np.ndarray:
    """H = (1/2)[Jx XX + Jy YY + Jz ZZ + B (ZI + IZ)] in the |00>,|01>,|10>,|11> basis."""
    return 0.5 * (jx * XX + jy * YY + jz * ZZ + field * (ZI + IZ))


def h_norm(jx: float, jy: float, jz: float, field: float) -> float:
    """Spectral norm of H."""
    return float(np.max(np.abs(np.linalg.eigvalsh(hamiltonian(jx, jy, jz, field)))))


def propagators(h: np.ndarray, times) -> np.ndarray:
    """exp(-i H t) for each t, shape (len(times), 4, 4)."""
    energies, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), energies))
    return np.einsum("ij,tj,kj->tik", vecs, phases, vecs.conj())


def x_matrix(a: float, b: float, c: float, d: float, z: float, w: float) -> np.ndarray:
    """The X-shaped density matrix with populations a..d and coherences z (inner), w (outer)."""
    m = np.diag([a, b, c, d]).astype(complex)
    m[1, 2] = m[2, 1] = z
    m[0, 3] = m[3, 0] = w
    return m


def evolve(h: np.ndarray, rho0: np.ndarray, times) -> np.ndarray:
    """rho(t) = U rho0 U^dagger for each t."""
    u = propagators(h, times)
    return u @ rho0 @ np.conj(np.transpose(u, (0, 2, 1)))


def trajectory_columns(h: np.ndarray, rho0: np.ndarray, times) -> dict[str, np.ndarray]:
    """f_numeric, purity and c1 - c2 at the given times.

    f is the normalized overlap Tr(rho0 rho) / sqrt(Tr rho0^2 Tr rho^2).
    """
    rho = evolve(h, rho0, times)
    overlap = np.einsum("ij,tji->t", rho0, rho).real
    pur = np.einsum("tij,tji->t", rho, rho).real
    pur0 = float(np.trace(rho0 @ rho0).real)
    c1 = np.einsum("ij,tji->t", XX, rho).real
    c2 = np.einsum("ij,tji->t", YY, rho).real
    return {"f_numeric": overlap / np.sqrt(pur0 * pur), "purity": pur, "c1_minus_c2": c1 - c2}


def commutator_norm(h: np.ndarray, rho0: np.ndarray) -> float:
    """Max-norm of [H, rho0]; the state is stationary exactly when it is 0."""
    return float(np.max(np.abs(h @ rho0 - rho0 @ h)))

