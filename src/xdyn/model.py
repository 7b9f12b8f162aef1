"""Two-qubit anisotropic Heisenberg exchange in a uniform z field.

Basis order throughout the package is |00>, |01>, |10>, |11> and hbar = 1.
The Hamiltonian couples only the outer pair {|00>, |11>} and the inner
pair {|01>, |10>}, which is what makes the closed forms below possible.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInputError

# Below this, sin(x)/x switches to its series 1 - x^2/6, which rounds to
# exactly 1.0 there: x^2/6 < 1.7e-17 is under half an ulp of 1.
SINC_SERIES_THRESHOLD = 1e-8


def sinc(x):
    """sin(x)/x for a float or an array, 1 below SINC_SERIES_THRESHOLD.  0/1 masks
    pick the branch (np.where costs microseconds per float) and keep x = 0 out of the divisor.
    A non-finite x gives NaN, as np.sin does; the public callers reject a non-finite t."""
    small = abs(x) < SINC_SERIES_THRESHOLD
    return small + (abs(x) >= SINC_SERIES_THRESHOLD) * (np.sin(x) / (x + small))


@dataclass(frozen=True)
class CouplingParams:
    """Exchange couplings (jx, jy, jz) and the uniform field strength."""

    jx: float
    jy: float
    jz: float
    field: float

    def __post_init__(self):
        for name in ("jx", "jy", "jz", "field"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise InvalidInputError(f"CouplingParams.{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class DerivedFrequencies:
    """The three frequencies every closed form is written in.

    eta   = sqrt(field^2 + delta^2) drives the outer block,
    omega = (jx + jy)/2 drives the inner block,
    delta = (jx - jy)/2 measures the exchange anisotropy.
    """

    eta: float
    omega: float
    delta: float


def frequencies(p: CouplingParams) -> DerivedFrequencies:
    delta = (p.jx - p.jy) / 2.0
    omega = (p.jx + p.jy) / 2.0
    eta = math.hypot(p.field, delta)
    return DerivedFrequencies(eta=eta, omega=omega, delta=delta)


def hamiltonian(p: CouplingParams) -> np.ndarray:
    """The 4x4 Hamiltonian matrix in the computational basis."""
    return 0.5 * (
        p.jx * linalg.PAULI_XX
        + p.jy * linalg.PAULI_YY
        + p.jz * linalg.PAULI_ZZ
        + p.field * (linalg.PAULI_ZI + linalg.PAULI_IZ)
    )


@dataclass(frozen=True)
class Spectrum:
    """Closed-form eigensystem.

    energies[i] pairs with eigenvectors[:, i].  The first two levels live
    in the outer {|00>, |11>} block, the last two are (|01> +- |10>)/sqrt2.
    norms holds the normalizers of the textbook outer-vector
    parametrization ((field +- eta)/delta, 0, 0, 1); both are 0 when the
    anisotropy vanishes and that parametrization degenerates.
    """

    energies: np.ndarray
    eigenvectors: np.ndarray
    norms: tuple[float, float]


def _outer_eigenvectors(field: float, eta: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    # Branch on the field sign to avoid cancellation in field +- eta.
    if eta == 0.0:
        v_plus = np.array([1.0, 0.0], dtype=complex)
        v_minus = np.array([0.0, 1.0], dtype=complex)
        return v_plus, v_minus
    if field >= 0.0:
        v_plus = np.array([field + eta, delta], dtype=complex)
        v_minus = np.array([-delta, field + eta], dtype=complex)
    else:
        v_plus = np.array([delta, eta - field], dtype=complex)
        v_minus = np.array([eta - field, -delta], dtype=complex)
    return v_plus / np.linalg.norm(v_plus), v_minus / np.linalg.norm(v_minus)


def spectrum(p: CouplingParams) -> Spectrum:
    """Eigenvalues and unit eigenvectors of ``hamiltonian(p)`` in closed form."""
    f = frequencies(p)
    energies = np.array(
        [
            p.jz / 2.0 + f.eta,
            p.jz / 2.0 - f.eta,
            -p.jz / 2.0 + f.omega,
            -p.jz / 2.0 - f.omega,
        ]
    )
    vecs = np.zeros((4, 4), dtype=complex)
    outer_plus, outer_minus = _outer_eigenvectors(p.field, f.eta, f.delta)
    vecs[0, 0], vecs[3, 0] = outer_plus
    vecs[0, 1], vecs[3, 1] = outer_minus
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    vecs[1, 2], vecs[2, 2] = inv_sqrt2, inv_sqrt2
    vecs[1, 3], vecs[2, 3] = inv_sqrt2, -inv_sqrt2

    norms = (0.0, 0.0)
    if f.delta != 0.0:
        # field +- eta computed cancellation-free on both field signs.
        b_plus = p.field + f.eta if p.field >= 0 else f.delta**2 / (f.eta - p.field)
        b_minus = p.field - f.eta if p.field <= 0 else -(f.delta**2) / (f.eta + p.field)
        norms = (
            abs(f.delta) / math.hypot(b_plus, f.delta),
            abs(f.delta) / math.hypot(b_minus, f.delta),
        )
    return Spectrum(energies=energies, eigenvectors=vecs, norms=norms)


def _finite_time(t, where: str):
    """t, if it is a finite number or an array of them; InvalidInputError otherwise."""
    if isinstance(t, np.ndarray) and np.isfinite(t).all():
        return t
    if not (isinstance(t, (int, float)) and math.isfinite(t)):
        raise InvalidInputError(f"{where}: t must be finite, got {t!r}")
    return t


def _outer_entries(p: CouplingParams, f: DerivedFrequencies, t):
    """cos(eta t), B t sinc(eta t) and Delta t sinc(eta t), for t a float or an
    array: mu+- = cos -+ i B t sinc and delta_entry = i Delta t sinc."""
    x = f.eta * t
    sinc_x = sinc(x)
    return np.cos(x), p.field * t * sinc_x, f.delta * t * sinc_x


@dataclass(frozen=True)
class Propagator:
    """Closed-form time evolution operator.

    mu_plus, mu_minus and delta_entry are always the phase-stripped block
    entries (the overall exp(-i jz t / 2) factor is dropped from them);
    ``matrix`` carries that scalar factor only when requested at build time.
    """

    mu_plus: complex
    mu_minus: complex
    delta_entry: complex
    matrix: np.ndarray
    global_phase_included: bool


def propagator(p: CouplingParams, t: float, include_global_phase: bool = False) -> Propagator:
    """Evolution operator at time t, assembled from the block closed forms.

    Args:
        p: couplings and field.
        t: evolution time (any finite real).
        include_global_phase: multiply the matrix by exp(-i jz t / 2) so it
            equals the exponential of -i H t exactly instead of up to phase.

    Returns:
        Propagator with unit-modulus block identities intact at eta = 0,
        courtesy of the sinc forms.
    """
    t = _finite_time(t, "propagator")
    f = frequencies(p)
    cos_x, b_t_sinc, delta_t_sinc = _outer_entries(p, f, t)
    mu_plus = complex(cos_x, b_t_sinc)
    mu_minus = mu_plus.conjugate()
    delta_entry = complex(0.0, delta_t_sinc)

    inner_phase = cmath.exp(1j * p.jz * t)
    cos_o = math.cos(f.omega * t)
    sin_o = math.sin(f.omega * t)

    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = mu_minus
    u[0, 3] = -delta_entry
    u[3, 0] = -delta_entry
    u[3, 3] = mu_plus
    u[1, 1] = inner_phase * cos_o
    u[2, 2] = inner_phase * cos_o
    u[1, 2] = -1j * inner_phase * sin_o
    u[2, 1] = -1j * inner_phase * sin_o
    if include_global_phase:
        u *= cmath.exp(-0.5j * p.jz * t)
    return Propagator(
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        delta_entry=delta_entry,
        matrix=u,
        global_phase_included=include_global_phase,
    )
