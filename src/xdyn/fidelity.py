"""Overlap-based fidelity for mixed two-qubit states.

The measure used throughout is Tr(rho sigma) / sqrt(Tr rho^2 Tr sigma^2):
a normalized Hilbert-Schmidt overlap that is 1 exactly on identical states
and cheap enough to evaluate densely along a trajectory.  The closed forms
below are the Bell-diagonal shortcut and two compact aggregate expressions
for the evolved overlap that `xdyn validate` adjudicates against the
matrix-exponential oracle (both aggregates are quoted in their widely
printed form; pass corrected=True for the repaired versions).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, model
from .errors import ConsistencyError, DomainError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10

# Slack on the [0, 1] window before a fidelity value is treated as a bug.
CLAMP_TOL = 1e-12

# A Bloch vector counts as Bell-diagonal when both polarizations are this small.
BELL_DIAGONAL_TOL = 1e-12

# Flat indices of the eight entries off the diagonal and the antidiagonal.
_OFF_X = np.array([1, 2, 4, 7, 8, 11, 13, 14])


def _block_min_eigenvalue(x, y, g):
    """Smaller eigenvalue of [[x, g], [g*, y]]: the one X-block positivity rule.

    Takes floats or arrays.  The root is mean - r, with mean = (x + y)/2 and
    r = hypot((x - y)/2, |g|).  For mean > 0 it is taken as the product of
    the roots over the larger one, (x y - |g|^2)/(mean + r), because mean - r
    cancels there and reads a block whose minimum sits at the floor one
    rounding below it.  The branch is picked with 0/1 masks rather than
    np.where, which would cost microseconds on every float call; the unused
    quotient is built from zeroed inputs, so a product that overflows there
    cannot turn the other branch into 0 * inf = NaN.
    """
    g = abs(g)
    mean = (x + y) / 2.0
    r = abs((x - y) / 2.0 + 1j * g)  # hypot, without a numpy call on floats
    pos = mean > 0.0
    neg = mean <= 0.0
    xp, gp = x * pos, g * pos
    return (xp * y - gp * g) / ((mean + r) * pos + neg) + neg * (mean - r)


def _x_min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of an X-shaped 4x4 matrix, in closed form.

    The spectrum is that of the blocks {0, 3} and {1, 2}.  Each block is
    read from the Hermitian part (m + m^dagger) / 2, as the Jacobi route
    reads the whole matrix.
    """
    r = m.tolist()
    outer, inner = (
        _block_min_eigenvalue(r[p][p].real, r[q][q].real, abs(r[p][q] + r[q][p].conjugate()) / 2.0)
        for p, q in ((0, 3), (1, 2))
    )
    return np.minimum(outer, inner)  # a NaN block stays NaN, where min() could drop it


@dataclass(frozen=True)
class DensityMatrix:
    """A 4x4 matrix checked to be a physical state on construction.

    Hermiticity within 1e-12 (max-norm), unit trace within 1e-12, minimum
    eigenvalue above -1e-10.  The minimum eigenvalue of an X-shaped matrix
    (all eight off-X entries exactly zero, as the dynamics keeps them) comes
    from its two 2x2 blocks in closed form; any other matrix goes through
    the in-house Jacobi eigensolver.  Violations raise ConsistencyError,
    since every code path that builds one is supposed to produce a
    physical state.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_matrix4(self.matrix, "DensityMatrix")
        if linalg.max_abs(m - linalg.dagger(m)) > HERMITICITY_TOL:
            raise ConsistencyError("DensityMatrix: matrix is not Hermitian within 1e-12")
        trace = np.trace(m)
        if abs(trace - 1.0) > TRACE_TOL:
            raise ConsistencyError(f"DensityMatrix: trace must be 1, got {trace}")
        if np.count_nonzero(m.take(_OFF_X)):
            min_eig = linalg.eigvals_hermitian(m, tol=HERMITICITY_TOL)[0]
        else:
            min_eig = _x_min_eigenvalue(m)
        if not min_eig >= EIG_FLOOR:  # NaN fails too
            raise ConsistencyError(f"DensityMatrix: min eigenvalue {min_eig} below {EIG_FLOOR}")
        object.__setattr__(self, "matrix", m)


def purity(r: DensityMatrix) -> float:
    """Tr(rho^2)."""
    return linalg._trace_of_product(r.matrix, r.matrix).real


def fidelity(r: DensityMatrix, s: DensityMatrix) -> float:
    """Normalized overlap Tr(r s) / sqrt(Tr r^2 Tr s^2), clamped to [0, 1]."""
    num = linalg._trace_of_product(r.matrix, s.matrix).real
    return _clamp_fidelity(num / math.sqrt(purity(r) * purity(s)))


def _clamp_fidelity(value):
    """Fidelity values, a float or an array, clamped to [0, 1].

    The clamp only absorbs round-off: a value outside [0, 1] by more than
    1e-12 raises ConsistencyError instead of being silently clipped.
    """
    if np.count_nonzero((value < -CLAMP_TOL) | (value > 1.0 + CLAMP_TOL)):
        raise ConsistencyError(f"fidelity: value {value} outside [0, 1] beyond round-off")
    return np.minimum(np.maximum(value, 0.0), 1.0)


def is_bell_diagonal(v) -> bool:
    """Whether a BlochVector has s1 = s2 = 0 within BELL_DIAGONAL_TOL."""
    return max(abs(v.s1), abs(v.s2)) <= BELL_DIAGONAL_TOL


def fidelity_bell_diagonal(v, p: model.CouplingParams, t):
    """Closed-form fidelity between a Bell-diagonal state and its evolution.

    f(t) = 1 - (c1 - c2)^2 B^2 sin^2(eta t) / ((1 + c1^2 + c2^2 + c3^2) eta^2),
    written with sinc so the eta -> 0 limit is exact.

    Args:
        v: BlochVector with s1 = s2 = 0 (DomainError otherwise).
        p: couplings and field.
        t: evolution time, a float or an array of times.
    """
    if not is_bell_diagonal(v):
        raise DomainError(
            "fidelity_bell_diagonal: defined only for Bell-diagonal states (s1 = s2 = 0)"
        )
    t = model._finite_time(t, "fidelity_bell_diagonal")
    f = model.frequencies(p)
    pulse = p.field * t * model.sinc(f.eta * t)  # B sin(eta t) / eta
    denom = 1.0 + v.c1**2 + v.c2**2 + v.c3**2
    return 1.0 - ((v.c1 - v.c2) ** 2) * pulse * pulse / denom


def overlap_population_form(s, p: model.CouplingParams, t: float, corrected: bool = False) -> float:
    """Aggregate for Tr(rho(0) rho(t)) in population variables.

    As commonly printed this misses a coupling between the population
    imbalance a - d and the outer coherence; corrected=True adds the term
    4 w (a - d) B Delta sin^2(eta t) / eta^2 that `xdyn validate` fits.
    Both variants agree with the oracle on Bell-diagonal states.
    """
    f = model.frequencies(p)
    s2e = (t * model.sinc(f.eta * t)) ** 2  # sin^2(eta t) / eta^2
    mu_sq = math.cos(f.eta * t) ** 2 + p.field**2 * s2e  # |mu|^2
    delta_sq = -(f.delta**2) * s2e  # delta_entry^2 is real negative
    value = (
        (s.a**2 + s.d**2) * mu_sq
        + (s.b - s.c) ** 2 * math.cos(f.omega * t) ** 2
        - 2.0 * s.a * s.d * delta_sq
        + 2.0 * s.b * s.c
        + 2.0 * s.z**2
        + 2.0 * s.w**2 * (1.0 - 2.0 * p.field**2 * s2e)
    )
    if corrected:
        value += 4.0 * s.w * (s.a - s.d) * p.field * f.delta * s2e
    return value


def overlap_bloch_form(v, p: model.CouplingParams, t: float, corrected: bool = False) -> float:
    """Aggregate for Tr(rho(0) rho(t)) in Bloch variables.

    The widely printed version omits the cross term coupling (c1 - c2) and
    (s1 + s2); corrected=True restores it,
    (c1 - c2)(s1 + s2) B Delta sin^2(eta t) / (2 eta^2).
    """
    f = model.frequencies(p)
    s2e = (t * model.sinc(f.eta * t)) ** 2
    cos_sq = math.cos(f.eta * t) ** 2
    value = (
        2.0 * (2.0 + 2.0 * v.c3**2)
        + 2.0 * (v.s1 + v.s2) ** 2 * (cos_sq + (p.field**2 - f.delta**2) * s2e)
        - 2.0 * (v.s1 - v.s2) ** 2
        + 4.0 * (v.s1 - v.s2) ** 2 * math.cos(f.omega * t) ** 2
        + 2.0 * (v.c1 + v.c2) ** 2
        + 2.0 * (v.c1 - v.c2) ** 2
    ) / 16.0 - (v.c1 - v.c2) ** 2 * p.field**2 * s2e / 4.0
    if corrected:
        value += (v.c1 - v.c2) * (v.s1 + v.s2) * p.field * f.delta * s2e / 2.0
    return value
