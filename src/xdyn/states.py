"""X-shaped two-qubit states: construction, presets, Bloch language.

An X state is stored by its four populations (a, b, c, d down the diagonal)
and the magnitudes of its two coherences: z on the inner antidiagonal
(|01><10|), w on the outer one (|00><11|).  Signed or complex coherences
are not stored; the signs of the Bloch picture are carried by BlochVector,
not by the stored state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    InvalidInputError,
    NormalizationError,
    PositivityError,
    RangeError,
    StateFileError,
    first_bad,
    require_finite_real,
)
from .fidelity import EIG_FLOOR, TRACE_TOL, DensityMatrix, _block_min_eigenvalue
from .model import _pow2


@dataclass(frozen=True)
class XState:
    """Populations and coherence magnitudes of an X-shaped density matrix.

    Raises InvalidInputError for a field that is not a finite real number,
    NormalizationError off the unit trace, and PositivityError for a
    negative coherence or when the induced matrix would dip below the
    eigenvalue floor.  Six float arrays of one shape make a stack of
    states, each checked as a single one is; an error names the first
    state that fails.
    """

    a: float
    b: float
    c: float
    d: float
    z: float
    w: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "z", "w"):
            object.__setattr__(self, name, require_finite_real(getattr(self, name), f"XState.{name}"))
        at, _ = first_bad(0.0, (self.z < 0) | (self.w < 0))
        if at is not None:
            raise PositivityError(f"XState{at} stores coherence magnitudes: z and w must be non-negative")
        total = self.a + self.b + self.c + self.d
        at, bad = first_bad(total, abs(total - 1.0) > TRACE_TOL)
        if at is not None:
            raise NormalizationError(f"populations{at} must sum to 1, got {bad!r}")
        for block, x, y, g, why in (
            ("inner", self.b, self.c, self.z, "z^2 exceeds b*c"),
            ("outer", self.a, self.d, self.w, "w^2 exceeds a*d"),
        ):
            at, _ = first_bad(0.0, np.logical_not(_block_min_eigenvalue(x, y, g) >= EIG_FLOOR))
            if at is not None:
                raise PositivityError(f"{block} block{at} not positive: {why}")

    @property
    def purity(self) -> float:
        return (
            _pow2(self.a) + _pow2(self.b) + _pow2(self.c) + _pow2(self.d)
            + 2.0 * _pow2(self.z) + 2.0 * _pow2(self.w)
        )


@dataclass(frozen=True)
class BlochVector:
    """The five correlation coefficients that close under this dynamics.

    s1, s2 are the single-qubit z polarizations; c1, c2, c3 the diagonal
    two-qubit correlators.  Their signs live here, while the XState
    built from them stores coherence magnitudes (from_bloch).  Float
    arrays make a stack, as for XState.
    """

    s1: float
    s2: float
    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        for name in ("s1", "s2", "c1", "c2", "c3"):
            v = require_finite_real(getattr(self, name), f"BlochVector.{name}")
            object.__setattr__(self, name, v)
            at, bad = first_bad(v, abs(v) > 1.0 + 1e-12)
            if at is not None:
                raise RangeError(f"BlochVector.{name}{at} must lie in [-1, 1], got {bad!r}")


def xstate_matrix(s: XState) -> np.ndarray:
    """The raw 4x4 matrix of an XState, (..., 4, 4) for a stack (no validation wrapper)."""
    return _x_matrix(s.a, s.b, s.c, s.d, s.z, s.w)


def _x_matrix(a, b, c, d, z, w) -> np.ndarray:
    """The X-shaped matrix with diagonal (a, b, c, d), rho[1, 2] = z and
    rho[0, 3] = w (complex allowed; the lower entries are their conjugates).
    Arrays of one shape give a (..., 4, 4) stack."""
    m = np.zeros(np.shape(a) + (4, 4), dtype=complex)
    m[..., 0, 0], m[..., 1, 1], m[..., 2, 2], m[..., 3, 3] = a, b, c, d
    m[..., 1, 2], m[..., 2, 1] = z, np.conj(z)
    m[..., 0, 3], m[..., 3, 0] = w, np.conj(w)
    return m


def to_density(s: XState) -> DensityMatrix:
    """Promote an XState to a validated density matrix."""
    return DensityMatrix(xstate_matrix(s))


def bloch_from_density(m) -> BlochVector:
    """Bloch coefficients of any density matrix, by the trace definition.

    s1, s2, c1, c2 and c3 are the expectations of ZI, IZ, XX, YY and ZZ.  A
    DensityMatrix was checked when it was built and is read as is; any
    other input is coerced with as_matrix4.
    """
    mm = m.matrix if isinstance(m, DensityMatrix) else linalg.as_matrix4(m, "bloch_from_density")
    return BlochVector(
        s1=linalg._trace_of_product(mm, linalg.PAULI_ZI).real,
        s2=linalg._trace_of_product(mm, linalg.PAULI_IZ).real,
        c1=linalg._trace_of_product(mm, linalg.PAULI_XX).real,
        c2=linalg._trace_of_product(mm, linalg.PAULI_YY).real,
        c3=linalg._trace_of_product(mm, linalg.PAULI_ZZ).real,
    )


def to_bloch(s: XState) -> BlochVector:
    """Bloch coefficients of an XState (trace definition, not shortcuts)."""
    return bloch_from_density(xstate_matrix(s))


def from_bloch(v: BlochVector) -> XState:
    """XState reconstructed from Bloch coefficients.

    The populations are linear in (s1, s2, c3); the coherences come back as
    z = (c1 + c2)/4 and w = (c1 - c2)/4 and are stored as magnitudes, so a
    vector with a negative combination lands on the partner state with
    non-negative coherences (same spectrum, same purity, fidelity dynamics
    identical on the Bell-diagonal family).  Raises PositivityError when
    no state matches.
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
        require_finite_real(v, f"preset_bell_diagonal.{name}")
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
    p = require_finite_real(p, "preset_p_mixture.p")
    if not 0.0 <= p <= 1.0:
        raise RangeError(f"preset_p_mixture: p must lie in [0, 1], got {p}")
    if kind.startswith("phi"):
        return XState(a=(1 + p) / 4, b=(1 - p) / 4, c=(1 - p) / 4, d=(1 + p) / 4, z=0.0, w=p / 2)
    return XState(a=(1 - p) / 4, b=(1 + p) / 4, c=(1 + p) / 4, d=(1 - p) / 4, z=p / 2, w=0.0)


def preset_werner(x: float) -> XState:
    """Werner family ((2 - x) I + (2x - 1) F) / 6 with F the swap operator.

    Defined for x in [-1, 1].  The inner coherence (2x - 1)/6 is stored as
    a magnitude; all three Bloch correlators equal (2x - 1)/3.  A float
    array of x gives a stack.
    """
    x = require_finite_real(x, "preset_werner.x")
    at, bad = first_bad(x, np.logical_not((-1.0 <= x) & (x <= 1.0)))
    if at is not None:
        raise RangeError(f"preset_werner: x{at} must lie in [-1, 1], got {bad}")
    return XState(
        a=(1 + x) / 6, b=(2 - x) / 6, c=(2 - x) / 6, d=(1 + x) / 6,
        z=abs(2 * x - 1) / 6, w=0.0,
    )


def _json_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StateFileError(f'field "{field}" must be a number, got {value!r}')
    try:
        return require_finite_real(value, f'field "{field}"')
    except InvalidInputError as exc:
        raise StateFileError(str(exc)) from None


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
    if key != "preset":
        size = 6 if key == "abcdzw" else 5
        if not isinstance(value, list) or len(value) != size:
            raise StateFileError(f'field "{key}" must be a list of {size} numbers')
        nums = [_json_number(v, f"{key}[{i}]") for i, v in enumerate(value)]
        return XState(*nums) if key == "abcdzw" else from_bloch(BlochVector(*nums))

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
