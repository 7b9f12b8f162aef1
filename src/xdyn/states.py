"""X-shaped two-qubit states: construction, gauge fixing, Bloch language.

An X state is stored by its four populations (a, b, c, d down the diagonal)
and the magnitudes of its two coherences: z on the inner antidiagonal
(|01><10|), w on the outer one (|00><11|).  Complex coherence phases are
removed up front by ``gauge_fix`` with a pair of local z rotations; the
signs that survive in the Bloch picture are carried by BlochVector, not by
the stored state.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    InvalidInputError,
    NormalizationError,
    PositivityError,
    RangeError,
    StateFileError,
)
from .fidelity import EIG_FLOOR, TRACE_TOL, DensityMatrix, _block_min_eigenvalue

# Two-qubit observables whose expectations define the Bloch coefficients.
OBS_S1 = linalg.PAULI_ZI
OBS_S2 = linalg.PAULI_IZ
OBS_C1 = linalg.PAULI_XX
OBS_C2 = linalg.PAULI_YY
OBS_C3 = linalg.PAULI_ZZ


def _require_finite_real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise InvalidInputError(f"{name} must be finite, got {v!r}")
    return v


@dataclass(frozen=True)
class XState:
    """Populations and coherence magnitudes of an X-shaped density matrix.

    Raises NormalizationError off the unit trace, PositivityError when the
    induced matrix would dip below the eigenvalue floor or when a negative
    coherence is passed directly (route complex/signed coherences through
    gauge_fix first).
    """

    a: float
    b: float
    c: float
    d: float
    z: float
    w: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "z", "w"):
            object.__setattr__(self, name, _require_finite_real(getattr(self, name), f"XState.{name}"))
        if self.z < 0 or self.w < 0:
            raise PositivityError(
                "XState stores coherence magnitudes; gauge_fix signed or complex coherences first"
            )
        total = self.a + self.b + self.c + self.d
        if abs(total - 1.0) > TRACE_TOL:
            raise NormalizationError(f"populations must sum to 1, got {total!r}")
        if not _block_min_eigenvalue(self.b, self.c, self.z) >= EIG_FLOOR:
            raise PositivityError("inner block not positive: z^2 exceeds b*c")
        if not _block_min_eigenvalue(self.a, self.d, self.w) >= EIG_FLOOR:
            raise PositivityError("outer block not positive: w^2 exceeds a*d")

    @property
    def purity(self) -> float:
        return (
            self.a**2 + self.b**2 + self.c**2 + self.d**2
            + 2.0 * self.z**2 + 2.0 * self.w**2
        )


@dataclass(frozen=True)
class BlochVector:
    """The five correlation coefficients that close under this dynamics.

    s1, s2 are the single-qubit z polarizations; c1, c2, c3 the diagonal
    two-qubit correlators.  Signs live here even when the stored XState has
    been canonicalized to non-negative coherences.
    """

    s1: float
    s2: float
    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        for name in ("s1", "s2", "c1", "c2", "c3"):
            v = _require_finite_real(getattr(self, name), f"BlochVector.{name}")
            object.__setattr__(self, name, v)
            if abs(v) > 1.0 + 1e-12:
                raise RangeError(f"BlochVector.{name} must lie in [-1, 1], got {v!r}")

    @property
    def purity(self) -> float:
        return (1.0 + self.s1**2 + self.s2**2 + self.c1**2 + self.c2**2 + self.c3**2) / 4.0


@dataclass(frozen=True)
class GaugeFix:
    """Result of stripping coherence phases with local z rotations.

    The realized unitary is exp(-i*theta1*sz) (x) exp(-i*theta2*sz), under
    which the inner coherence picks up exp(-2i(theta1-theta2)) and the
    outer one exp(-2i(theta1+theta2)).  rotates_frame flags a nontrivial
    rotation: in that frame the exchange couplings acquire the opposite
    phases, so closed-form dynamics computed afterwards live in the rotated
    frame whenever the corresponding coupling (anisotropy for the outer
    angle sum, exchange for the angle difference) is nonzero.
    """

    z: float
    w: float
    theta1: float
    theta2: float
    rotates_frame: bool


def gauge_fix(z, w) -> GaugeFix:
    """Phases removed from the two coherences with two local z rotations.

    Args:
        z: inner coherence, any complex number.
        w: outer coherence, any complex number.

    Returns:
        GaugeFix carrying |z|, |w| and the angles (theta1, theta2) of the
        realizing unitary exp(-i*theta1*sz) (x) exp(-i*theta2*sz).
    """
    zc = complex(z)
    wc = complex(w)
    if not (math.isfinite(zc.real) and math.isfinite(zc.imag)
            and math.isfinite(wc.real) and math.isfinite(wc.imag)):
        raise InvalidInputError("gauge_fix: coherences must be finite")
    arg_z = cmath.phase(zc) if zc != 0 else 0.0
    arg_w = cmath.phase(wc) if wc != 0 else 0.0
    theta1 = (arg_w + arg_z) / 4.0
    theta2 = (arg_w - arg_z) / 4.0
    return GaugeFix(
        z=abs(zc),
        w=abs(wc),
        theta1=theta1,
        theta2=theta2,
        rotates_frame=(theta1 != 0.0 or theta2 != 0.0),
    )


def local_rotation(theta1: float, theta2: float) -> np.ndarray:
    """The diagonal unitary exp(-i*theta1*sz) (x) exp(-i*theta2*sz)."""
    return np.diag(
        [
            cmath.exp(-1j * (theta1 + theta2)),
            cmath.exp(-1j * (theta1 - theta2)),
            cmath.exp(1j * (theta1 - theta2)),
            cmath.exp(1j * (theta1 + theta2)),
        ]
    )


def xstate_matrix(s: XState) -> np.ndarray:
    """The raw 4x4 matrix of an XState (no validation wrapper)."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = s.a, s.b, s.c, s.d
    m[1, 2] = m[2, 1] = s.z
    m[0, 3] = m[3, 0] = s.w
    return m


def to_density(s: XState) -> DensityMatrix:
    """Promote an XState to a validated density matrix."""
    return DensityMatrix(xstate_matrix(s))


def bloch_from_density(m) -> BlochVector:
    """Bloch coefficients of any density matrix, by the trace definition.

    A DensityMatrix was checked when it was built and is read as is; any
    other input is coerced with as_matrix4.
    """
    mm = m.matrix if isinstance(m, DensityMatrix) else linalg.as_matrix4(m, "bloch_from_density")
    return BlochVector(
        s1=linalg._trace_of_product(mm, OBS_S1).real,
        s2=linalg._trace_of_product(mm, OBS_S2).real,
        c1=linalg._trace_of_product(mm, OBS_C1).real,
        c2=linalg._trace_of_product(mm, OBS_C2).real,
        c3=linalg._trace_of_product(mm, OBS_C3).real,
    )


def to_bloch(s: XState) -> BlochVector:
    """Bloch coefficients of an XState (trace definition, not shortcuts)."""
    return bloch_from_density(xstate_matrix(s))


def from_bloch(v: BlochVector) -> XState:
    """XState reconstructed from Bloch coefficients.

    The populations are linear in (s1, s2, c3); the coherences come back as
    z = (c1 + c2)/4 and w = (c1 - c2)/4 and are stored as magnitudes, so a
    vector with a negative combination lands on the gauge-canonical partner
    state (same spectrum, same purity, fidelity dynamics identical on the
    Bell-diagonal family).  Raises PositivityError when no state matches.
    """
    a = (1.0 + v.s1 + v.s2 + v.c3) / 4.0
    b = (1.0 + v.s1 - v.s2 - v.c3) / 4.0
    c = (1.0 - v.s1 + v.s2 - v.c3) / 4.0
    d = (1.0 - v.s1 - v.s2 + v.c3) / 4.0
    z = (v.c1 + v.c2) / 4.0
    w = (v.c1 - v.c2) / 4.0
    return XState(a=a, b=b, c=c, d=d, z=abs(z), w=abs(w))


def preset_bell_diagonal(c1: float, c2: float, c3: float) -> XState:
    """Bell-diagonal state with the given correlators.

    Valid exactly on the Bell tetrahedron; anything outside raises
    PositivityError through XState validation.
    """
    for name, v in (("c1", c1), ("c2", c2), ("c3", c3)):
        _require_finite_real(v, f"preset_bell_diagonal.{name}")
    return from_bloch(BlochVector(s1=0.0, s2=0.0, c1=float(c1), c2=float(c2), c3=float(c3)))


_P_MIXTURE_KINDS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


def preset_p_mixture(kind: str, p: float) -> XState:
    """Convex mixture of a Bell projector with the maximal mixture.

    kind selects the Bell state ((|00> +- |11>)/sqrt2 for phi_*,
    (|01> +- |10>)/sqrt2 for psi_*), p in [0, 1] its weight.  The minus
    kinds share their plus partner's canonical XState; the sign difference
    is a Bloch-level statement (c1 or c2 flips), not a stored one.
    """
    if kind not in _P_MIXTURE_KINDS:
        raise RangeError(f"preset_p_mixture: unknown kind {kind!r}, expected one of {_P_MIXTURE_KINDS}")
    p = _require_finite_real(p, "preset_p_mixture.p")
    if not 0.0 <= p <= 1.0:
        raise RangeError(f"preset_p_mixture: p must lie in [0, 1], got {p}")
    if kind.startswith("phi"):
        return XState(a=(1 + p) / 4, b=(1 - p) / 4, c=(1 - p) / 4, d=(1 + p) / 4, z=0.0, w=p / 2)
    return XState(a=(1 - p) / 4, b=(1 + p) / 4, c=(1 + p) / 4, d=(1 - p) / 4, z=p / 2, w=0.0)


def preset_werner(x: float) -> XState:
    """Werner family ((2 - x) I + (2x - 1) F) / 6 with F the swap operator.

    Defined for x in [-1, 1].  The inner coherence (2x - 1)/6 is stored as
    a magnitude; all three Bloch correlators equal (2x - 1)/3.
    """
    x = _require_finite_real(x, "preset_werner.x")
    if not -1.0 <= x <= 1.0:
        raise RangeError(f"preset_werner: x must lie in [-1, 1], got {x}")
    return XState(
        a=(1 + x) / 6, b=(2 - x) / 6, c=(2 - x) / 6, d=(1 + x) / 6,
        z=abs(2 * x - 1) / 6, w=0.0,
    )


def _json_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StateFileError(f'field "{field}" must be a number, got {value!r}')
    if not math.isfinite(float(value)):
        raise StateFileError(f'field "{field}" must be finite, got {value!r}')
    return float(value)


def state_from_json(obj) -> XState:
    """Build an XState from a parsed state-file object.

    The object must contain exactly one of:
      {"abcdzw": [a, b, c, d, z, w]}
      {"bloch":  [s1, s2, c1, c2, c3]}
      {"preset": {"name": ..., "args": [...]}}
    Schema violations raise StateFileError naming the offending field;
    physically invalid parameters fall through to the usual validation
    errors.
    """
    if not isinstance(obj, dict):
        raise StateFileError(f"state file must hold a JSON object, got {type(obj).__name__}")
    present = [k for k in ("abcdzw", "bloch", "preset") if k in obj]
    if len(present) != 1:
        raise StateFileError(
            'state file must contain exactly one of "abcdzw", "bloch", "preset"; '
            f"found {present or 'none'}"
        )
    extra = sorted(set(obj) - {"abcdzw", "bloch", "preset"})
    if extra:
        raise StateFileError(f"unknown field(s) {extra} in state file")

    key = present[0]
    value = obj[key]
    if key == "abcdzw":
        if not isinstance(value, list) or len(value) != 6:
            raise StateFileError('field "abcdzw" must be a list of 6 numbers')
        nums = [_json_number(v, f"abcdzw[{i}]") for i, v in enumerate(value)]
        return XState(*nums)
    if key == "bloch":
        if not isinstance(value, list) or len(value) != 5:
            raise StateFileError('field "bloch" must be a list of 5 numbers')
        nums = [_json_number(v, f"bloch[{i}]") for i, v in enumerate(value)]
        return from_bloch(BlochVector(*nums))

    if not isinstance(value, dict):
        raise StateFileError('field "preset" must be an object with "name" and "args"')
    unknown = sorted(set(value) - {"name", "args"})
    if unknown:
        raise StateFileError(f'unknown field(s) {unknown} in "preset"')
    name = value.get("name")
    args = value.get("args")
    if not isinstance(name, str):
        raise StateFileError('field "preset.name" must be a string')
    if not isinstance(args, list):
        raise StateFileError('field "preset.args" must be a list')
    if name == "bell_diagonal":
        if len(args) != 3:
            raise StateFileError('field "preset.args" must hold [c1, c2, c3] for bell_diagonal')
        return preset_bell_diagonal(*(_json_number(v, f"preset.args[{i}]") for i, v in enumerate(args)))
    if name == "p_mixture":
        if len(args) != 2:
            raise StateFileError('field "preset.args" must hold [kind, p] for p_mixture')
        kind = args[0]
        if not isinstance(kind, str):
            raise StateFileError('field "preset.args[0]" must be a string kind for p_mixture')
        return preset_p_mixture(kind, _json_number(args[1], "preset.args[1]"))
    if name == "werner":
        if len(args) != 1:
            raise StateFileError('field "preset.args" must hold [x] for werner')
        return preset_werner(_json_number(args[0], "preset.args[0]"))
    raise StateFileError(
        f'field "preset.name" must be one of "bell_diagonal", "p_mixture", "werner"; got {name!r}'
    )
