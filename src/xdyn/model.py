"""Two-qubit anisotropic Heisenberg exchange in a uniform z field.

Basis order throughout the package is |00>, |01>, |10>, |11> and hbar = 1.
The Hamiltonian couples only the outer pair {|00>, |11>} and the inner
pair {|01>, |10>}, which is what makes the closed forms below possible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import InvalidInputError, RangeError, first_bad, require_finite_real

# Below this, sin(x)/x switches to its series 1 - x^2/6, which rounds to
# exactly 1.0 there: x^2/6 < 1.7e-17 is under half an ulp of 1.
SINC_SERIES_THRESHOLD = 1e-8


def _pow2(x):
    """x ** 2 as a float computes it (libm pow), for floats and arrays alike.

    numpy's ** squares an array as x * x, which rounds differently from
    pow in about one case in a thousand; the closed forms use this so a
    stack gets the bits each of its elements gets on its own.
    """
    return np.float_power(x, 2)


def sinc(x):
    """sin(x)/x for a float or an array, 1 below SINC_SERIES_THRESHOLD.

    0/1 masks pick the branch (np.where costs microseconds per float) and
    keep x = 0 out of the divisor.  A non-finite x gives NaN, as np.sin
    does; every route that calls it with x = eta t has first passed t
    through _finite_phases, which refuses such a t.
    """
    small = abs(x) < SINC_SERIES_THRESHOLD
    return small + (abs(x) >= SINC_SERIES_THRESHOLD) * (np.sin(x) / (x + small))


# math.hypot applied element by element, returning an object array.
_HYPOT_EACH = np.frompyfunc(math.hypot, 2, 1)


def _hypot(x, y):
    """math.hypot(x, y), for floats or arrays.

    numpy's hypot rounds differently from CPython's in about one case in
    500, so arrays call math.hypot on each element, which gives a stack of
    couplings the bits each gets on its own.  One call per element is
    faster than array arithmetic for the stacks of a few hundred that
    validate evaluates.
    """
    if not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray)):
        return math.hypot(x, y)
    return np.asarray(_HYPOT_EACH(x, y), dtype=float)


@dataclass(frozen=True)
class CouplingParams:
    """Exchange couplings (jx, jy, jz) and the uniform field strength.

    Each field is a finite number, or each a float array of one shape:
    a stack of couplings, which hamiltonian, propagator and the evolution
    core take element by element.

    eta, omega and delta are the three frequencies every closed form is
    written in: eta = sqrt(field^2 + delta^2) drives the outer block,
    omega = (jx + jy)/2 the inner block, and delta = (jx - jy)/2 measures
    the exchange anisotropy.  They are computed together on first use and
    kept; that first use raises RangeError, naming a stack's first bad
    element, when eta or omega overflows a float.
    """

    jx: float
    jy: float
    jz: float
    field: float

    def __post_init__(self):
        for name in ("jx", "jy", "jz", "field"):
            object.__setattr__(self, name, require_finite_real(getattr(self, name), f"CouplingParams.{name}"))

    @cached_property
    def _frequencies(self) -> tuple:
        with np.errstate(over="ignore"):  # the refusal below, not a numpy warning, reports an overflow
            delta = (self.jx - self.jy) / 2.0
            omega = (self.jx + self.jy) / 2.0
        eta = _hypot(self.field, delta)
        bad = ~(np.isfinite(eta) & np.isfinite(omega))  # delta is finite where eta is
        at, eta_bad = first_bad(eta, bad)
        if at is not None:
            raise RangeError(f"frequencies overflow a float{at}: eta = {eta_bad}, omega = {first_bad(omega, bad)[1]}")
        return eta, omega, delta

    eta = property(lambda self: self._frequencies[0])
    omega = property(lambda self: self._frequencies[1])
    delta = property(lambda self: self._frequencies[2])


def hamiltonian(p: CouplingParams) -> np.ndarray:
    """The 4x4 Hamiltonian matrix in the computational basis, (..., 4, 4) for a stack."""
    jx, jy, jz, b = (np.asarray(v)[..., None, None] for v in (p.jx, p.jy, p.jz, p.field))
    return 0.5 * (
        jx * linalg.PAULI_XX
        + jy * linalg.PAULI_YY
        + jz * linalg.PAULI_ZZ
        + b * (linalg.PAULI_ZI + linalg.PAULI_IZ)
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
    energies = np.array(
        [
            p.jz / 2.0 + p.eta,
            p.jz / 2.0 - p.eta,
            -p.jz / 2.0 + p.omega,
            -p.jz / 2.0 - p.omega,
        ]
    )
    if not np.isfinite(energies).all():
        raise RangeError(f"spectrum: an energy overflows a float (jz = {p.jz}, eta = {p.eta}, omega = {p.omega})")
    # The outer eigenvectors and norms are ratios of field, eta and delta, whose squares leave the float
    # range for eta outside [2^-500, 2^500]; there all three are scaled by a power of two to eta in [0.5, 1).
    e = 0 if 2.0**-500 <= p.eta <= 2.0**500 else -math.frexp(p.eta)[1]
    field, eta, delta = (math.ldexp(x, e) for x in (p.field, p.eta, p.delta))
    vecs = np.zeros((4, 4), dtype=complex)
    outer_plus, outer_minus = _outer_eigenvectors(field, eta, delta)
    vecs[0, 0], vecs[3, 0] = outer_plus
    vecs[0, 1], vecs[3, 1] = outer_minus
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    vecs[1, 2], vecs[2, 2] = inv_sqrt2, inv_sqrt2
    vecs[1, 3], vecs[2, 3] = inv_sqrt2, -inv_sqrt2

    norms = _outer_norms(field, eta, delta) if delta != 0.0 else (0.0, 0.0)
    return Spectrum(energies=energies, eigenvectors=vecs, norms=norms)


def _outer_norms(field, eta, delta) -> tuple:
    """Spectrum.norms for delta != 0, for floats or arrays.

    field +- eta is computed cancellation-free on both field signs; 0/1
    masks pick the branch, and the unused quotient never divides by zero.
    """
    up, down = field >= 0, field <= 0
    d_sq = _pow2(delta)
    b_plus = up * (field + eta) + (field < 0) * (d_sq / (eta - field + up))
    b_minus = down * (field - eta) - (field > 0) * (d_sq / (eta + field + down))
    return abs(delta) / _hypot(b_plus, delta), abs(delta) / _hypot(b_minus, delta)


def _finite_phases(p: CouplingParams, t, where: str):
    """t, once it is known to be finite and to keep eta t, |omega| t and jz t finite.

    A t that is not a finite number (or an array of them) is refused first,
    with an InvalidInputError that starts with `where`; then the couplings'
    own overflow, and then a phase that overflows, each with a RangeError.
    For a single coupling, t is a float or a sorted array, whose largest
    |t| is at one end, so the check costs one scalar however long the
    grid.  All three products are finite exactly when the largest is, and
    Python floats overflow to inf without the RuntimeWarning numpy scalars
    raise.  A stack of couplings checks each rate against its own times
    and names the first element that overflows.
    """
    finite = np.isfinite(t).all() if isinstance(t, np.ndarray) else isinstance(t, (int, float)) and math.isfinite(t)
    if not finite:
        raise InvalidInputError(f"{where}: t must be finite, got {t!r}")
    if isinstance(p.eta, np.ndarray):
        rate = np.maximum(np.maximum(p.eta, abs(p.omega)), abs(p.jz))
        with np.errstate(over="ignore"):
            at, t_bad = first_bad(t, ~np.isfinite(rate * abs(t)))
        if at is not None:
            raise RangeError(
                f"t = {t_bad} overflows a phase at stack index {at}: "
                "eta*t, |omega|*t and jz*t must be finite"
            )
        return t
    t_abs = max(abs(float(t[0])), abs(float(t[-1]))) if isinstance(t, np.ndarray) else float(t)
    if not math.isfinite(max(p.eta, abs(p.omega), abs(p.jz)) * t_abs):
        raise RangeError(
            f"t = {t_abs} overflows a phase: eta*t, |omega|*t and jz*t must be finite "
            f"(eta = {p.eta}, omega = {p.omega}, jz = {p.jz})"
        )
    return t


def _outer_entries(p: CouplingParams, t):
    """cos(eta t), B t sinc(eta t) and Delta t sinc(eta t), for t a float or a
    sorted array that has passed _finite_phases: mu+- = cos -+ i B t sinc and
    delta_entry = i Delta t sinc."""
    x = p.eta * t
    sinc_x = sinc(x)
    return np.cos(x), p.field * t * sinc_x, p.delta * t * sinc_x


@dataclass(frozen=True)
class Propagator:
    """Closed-form time evolution operator.

    mu_plus and delta_entry are always the phase-stripped block entries
    (the overall exp(-i jz t / 2) factor is dropped from them), and mu_minus
    is mu_plus.conjugate(); ``matrix`` carries that scalar factor only when
    requested at build time.
    For a stack of couplings or times the entries are arrays and ``matrix``
    has shape (..., 4, 4).
    """

    mu_plus: complex
    delta_entry: complex
    matrix: np.ndarray


def _complex(re, im):
    # re + i im with both parts exactly as given, signed zeros included.
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def propagator(p: CouplingParams, t, include_global_phase: bool = False) -> Propagator:
    """Evolution operator at time t, assembled from the block closed forms.

    Args:
        p: couplings and field, or a stack of them.
        t: evolution time, finite, with eta t, |omega| t and jz t finite;
            an array of times (one per coupling of a stack) gives a stack.
        include_global_phase: multiply the matrix by exp(-i jz t / 2) so it
            equals the exponential of -i H t exactly instead of up to phase.

    Returns:
        Propagator with unit-modulus block identities intact at eta = 0,
        courtesy of the sinc forms.
    """
    t = _finite_phases(p, t, "propagator")
    cos_x, b_t_sinc, delta_t_sinc = _outer_entries(p, t)
    mu_plus = _complex(cos_x, b_t_sinc)
    delta_entry = _complex(0.0, delta_t_sinc)
    inner_phase = np.exp(1j * p.jz * t)
    cos_o = np.cos(p.omega * t)
    sin_o = np.sin(p.omega * t)

    u = np.zeros(mu_plus.shape + (4, 4), dtype=complex)
    u[..., 0, 0] = mu_plus.conj()
    u[..., 0, 3] = u[..., 3, 0] = -delta_entry
    u[..., 3, 3] = mu_plus
    u[..., 1, 1] = u[..., 2, 2] = inner_phase * cos_o
    u[..., 1, 2] = u[..., 2, 1] = -1j * inner_phase * sin_o
    if include_global_phase:
        u *= np.exp(-0.5j * p.jz * t)[..., None, None]
    if mu_plus.ndim == 0:
        mu_plus, delta_entry = complex(mu_plus), complex(delta_entry)
    return Propagator(mu_plus=mu_plus, delta_entry=delta_entry, matrix=u)
