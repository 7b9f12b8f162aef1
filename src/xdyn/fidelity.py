"""Overlap-based fidelity for mixed two-qubit states.

The measure used throughout is Tr(rho sigma) / sqrt(Tr rho^2 Tr sigma^2):
a normalized Hilbert-Schmidt overlap that is 1 exactly on identical states
and cheap enough to evaluate densely along a trajectory.  The one closed
form here is the Bell-diagonal shortcut; the printed aggregate expressions
for the evolved overlap live in `xdyn.validate`, beside the check that
judges them against the matrix-exponential oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, model
from .errors import ConsistencyError, DomainError, InvalidInputError, first_bad
from .model import _pow2

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10

# Slack on the [0, 1] window before a fidelity value is treated as a bug.
CLAMP_TOL = 1e-12

# A Bloch vector counts as Bell-diagonal when both polarizations are this small.
BELL_DIAGONAL_TOL = 1e-12

# Flat indices of the eight entries off the diagonal and the antidiagonal.
_OFF_X = np.array([1, 2, 4, 7, 8, 11, 13, 14])


def _modulus(g):
    """|g| of a float or complex, or of each entry of an array, by libm hypot.

    abs reads a Python or numpy complex scalar with libm hypot, but a complex
    array with numpy's own absolute, which misses libm's last bit on a large
    share of inputs; arrays therefore go through np.hypot, which is libm
    hypot.  Scalars make no numpy call.
    """
    return np.hypot(g.real, g.imag) if isinstance(g, np.ndarray) else abs(g)


def _block_min_eigenvalue(x, y, g):
    """Smaller eigenvalue of [[x, g], [g*, y]]: the one X-block positivity rule.

    Takes floats or arrays.  The root is mean - r, with mean = (x + y)/2 and
    r = hypot((x - y)/2, |g|); _modulus reads both, so a block gives the
    same bits alone and inside a stack.  For mean > 0 the root is taken as
    the product of the roots over the larger one, (x y - |g|^2)/(mean + r),
    because mean - r cancels there and reads a block whose minimum sits at
    the floor one rounding below it.  The branch is picked with 0/1 masks
    rather than np.where, which would cost microseconds on every float call;
    the unused quotient is built from zeroed inputs, so a product that
    overflows there cannot turn the other branch into 0 * inf = NaN.
    """
    g = _modulus(g)
    mean = (x + y) / 2.0
    r = _modulus((x - y) / 2.0 + 1j * g)  # hypot((x - y)/2, |g|)
    pos = mean > 0.0
    neg = mean <= 0.0
    xp, gp = x * pos, g * pos
    return (xp * y - gp * g) / ((mean + r) * pos + neg) + neg * (mean - r)


def _x_min_eigenvalue(m: np.ndarray):
    """Smallest eigenvalue of an X-shaped 4x4 matrix, or of each in a stack, in closed form.

    The spectrum is that of the blocks {0, 3} and {1, 2}.  Each block is
    read from the Hermitian part (m + m^dagger) / 2.  One matrix is read as
    Python numbers, a stack as arrays of entries; products of huge entries
    overflow to inf either way, which the block rule is written to survive.
    """
    e = m.tolist() if m.ndim == 2 else np.moveaxis(m, (-2, -1), (0, 1))
    with np.errstate(over="ignore"):
        outer, inner = (
            _block_min_eigenvalue(e[p][p].real, e[q][q].real, _modulus(e[p][q] + e[q][p].conjugate()) / 2.0)
            for p, q in ((0, 3), (1, 2))
        )
    return np.minimum(outer, inner)  # a NaN block stays NaN, where min() could drop it


@dataclass(frozen=True)
class DensityMatrix:
    """An X-shaped 4x4 matrix checked to be a physical state on construction.

    A matrix with a nonzero entry off the diagonal and the antidiagonal is
    refused with InvalidInputError: the dynamics keeps all eight such
    entries exactly zero.  Then Hermiticity within 1e-12 (max-norm), unit
    trace within 1e-12, and a minimum eigenvalue above -1e-10, read from
    the two 2x2 blocks in closed form.  Those violations raise
    ConsistencyError, since every code path that builds one is supposed to
    produce a physical state.

    A (..., 4, 4) stack holds one state per matrix: each is checked as a
    single one is, and an error names the first that fails.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_matrix4(self.matrix, "DensityMatrix")
        off_x = m.reshape(m.shape[:-2] + (16,)).take(_OFF_X, axis=-1)
        at, _ = first_bad(0.0, np.any(off_x != 0.0, axis=-1))
        if at is not None:
            raise InvalidInputError(
                f"DensityMatrix{at}: not X-shaped, an entry off the diagonal and the antidiagonal is nonzero"
            )
        h = m - linalg.dagger(m)
        at, _ = first_bad(0.0, linalg.max_abs_each(h) > HERMITICITY_TOL)
        if at is not None:
            raise ConsistencyError(f"DensityMatrix{at}: matrix is not Hermitian within 1e-12")
        trace = np.trace(m, axis1=-2, axis2=-1)
        at, bad = first_bad(trace, abs(trace - 1.0) > TRACE_TOL)
        if at is not None:
            raise ConsistencyError(f"DensityMatrix{at}: trace must be 1, got {bad}")
        min_eig = _x_min_eigenvalue(m)
        at, bad = first_bad(min_eig, np.logical_not(min_eig >= EIG_FLOOR))  # NaN fails too
        if at is not None:
            raise ConsistencyError(f"DensityMatrix{at}: min eigenvalue {bad} below {EIG_FLOOR}")
        object.__setattr__(self, "matrix", m)


def purity(r: DensityMatrix) -> float:
    """Tr(rho^2), an array of them for a stack."""
    return linalg._trace_of_product(r.matrix, r.matrix).real


def fidelity(r: DensityMatrix, s: DensityMatrix) -> float:
    """Normalized overlap Tr(r s) / sqrt(Tr r^2 Tr s^2), clamped to [0, 1].

    Either argument may be a stack; the result then is an array.
    """
    num = linalg._trace_of_product(r.matrix, s.matrix).real
    return _clamp_fidelity(num / np.sqrt(purity(r) * purity(s)))


def _clamp_fidelity(value, where=None):
    """Fidelity values, a float or an array, clamped to [0, 1].

    The clamp only absorbs round-off: a value outside [0, 1] by more than
    1e-12 raises ConsistencyError instead of being silently clipped.  The
    error names the first such value by its index, or opens with where(bad).
    """
    bad = (value < -CLAMP_TOL) | (value > 1.0 + CLAMP_TOL)
    at, v = first_bad(value, bad)
    if at is not None:
        name = "fidelity" + at if where is None else where(bad) + "fidelity"
        raise ConsistencyError(f"{name}: value {v} outside [0, 1] beyond round-off")
    return np.minimum(np.maximum(value, 0.0), 1.0)


def is_bell_diagonal(v) -> bool:
    """Whether a BlochVector (every one of a stack) has s1 = s2 = 0 within BELL_DIAGONAL_TOL."""
    return bool(np.all(np.maximum(abs(v.s1), abs(v.s2)) <= BELL_DIAGONAL_TOL))


def fidelity_bell_diagonal(v, p: model.CouplingParams, t):
    """Closed-form fidelity between a Bell-diagonal state and its evolution.

    f(t) = 1 - (c1 - c2)^2 B^2 sin^2(eta t) / ((1 + c1^2 + c2^2 + c3^2) eta^2),
    written with sinc so the eta -> 0 limit is exact.

    Args:
        v: BlochVector with s1 = s2 = 0 (DomainError otherwise).
        p: couplings and field.
        t: evolution time, a float or an array of times; v, p and t may
            also be stacks that broadcast together.
    """
    if not is_bell_diagonal(v):
        raise DomainError(
            "fidelity_bell_diagonal: defined only for Bell-diagonal states (s1 = s2 = 0)"
        )
    t = model._finite_phases(p, t, "fidelity_bell_diagonal")
    pulse = p.field * t * model.sinc(p.eta * t)  # B sin(eta t) / eta
    denom = 1.0 + _pow2(v.c1) + _pow2(v.c2) + _pow2(v.c3)
    return 1.0 - _pow2(v.c1 - v.c2) * pulse * pulse / denom
