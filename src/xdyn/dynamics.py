"""Time evolution of X states, two independent routes, and trajectory tools.

evolve_closed assembles rho(t) from the per-element closed forms;
evolve_oracle conjugates with the series matrix exponential and knows
nothing about them.  They must agree entrywise to 1e-10, which is the
load-bearing check of the whole package (`xdyn validate`, and the test
suite, exercise it across parameter space including the degenerate
eta -> 0 corner).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, model, states
from .errors import (
    ConsistencyError,
    DomainError,
    InsufficientSpanError,
    RangeError,
)
from .fidelity import EIG_FLOOR, TRACE_TOL, DensityMatrix, _block_min_eigenvalue, _clamp_fidelity
from .fidelity import fidelity_bell_diagonal, is_bell_diagonal

BLOCH_MATCH_TOL = 1e-12

# A trajectory counts as stationary when the fidelity never drops further
# than this below 1.
STATIONARY_TOL = 1e-10

COMMUTATOR_TOL = 1e-12

# Largest grid a TimeGrid accepts: 50 times classify's 20001 samples.  A
# scan holds a few dozen arrays of this length at once, about 170 MB.
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of [0, t_max] with `steps` points, endpoints included.

    steps is at most MAX_STEPS, so a grid and the arrays scan builds on it
    fit in memory.
    """

    t_max: float
    steps: int

    def __post_init__(self):
        if isinstance(self.t_max, bool) or not isinstance(self.t_max, (int, float)):
            raise RangeError(f"TimeGrid.t_max must be a number, got {self.t_max!r}")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise RangeError(f"TimeGrid.t_max must be finite and positive, got {self.t_max}")
        if isinstance(self.steps, bool) or not isinstance(self.steps, int):
            raise RangeError(f"TimeGrid.steps must be an int, got {self.steps!r}")
        if self.steps < 2:
            raise RangeError(f"TimeGrid.steps must be at least 2, got {self.steps}")
        if self.steps > MAX_STEPS:
            raise RangeError(f"TimeGrid.steps must be at most {MAX_STEPS}, got {self.steps}")

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.steps)


@dataclass(frozen=True)
class FidelityTrace:
    """Sampled trajectory data produced by ``scan``.

    f_closed is populated only for Bell-diagonal initial states, where the
    closed-form shortcut applies; c1_minus_c2 tracks the coefficient
    difference whose sign distinguishes the two stationary half-spaces.
    """

    times: np.ndarray
    f_numeric: np.ndarray
    f_closed: np.ndarray | None
    purity: np.ndarray
    c1_minus_c2: np.ndarray

    def __post_init__(self):
        n = len(self.times)
        for name in ("f_numeric", "purity", "c1_minus_c2"):
            if len(getattr(self, name)) != n:
                raise ConsistencyError(f"FidelityTrace.{name} length differs from times")
        if self.f_closed is not None and len(self.f_closed) != n:
            raise ConsistencyError("FidelityTrace.f_closed length differs from times")


@dataclass(frozen=True)
class StationarityVerdict:
    """Outcome of ``classify``: stationary or periodic, with the reason.

    period is present exactly for periodic verdicts.  reason is one of
    zero_field, c1_equals_c2, maximally_mixed, generic (the last covers
    periodic verdicts and everything decided empirically).
    """

    kind: str
    reason: str
    period: float | None = None


def _evolve_x(s: states.XState, p: model.CouplingParams, t) -> tuple:
    """rho(t) as six numbers (a, b, c, d, z, w), z = rho[1, 2] and w = rho[0, 3].

    t is a finite float or an array of them.  mu+- and delta_entry mix a, d and
    w, the inner block rotates by omega*t.  Complex products are written out in
    real arithmetic, in evaluation order, so a float and an array give the same bits.
    """
    f = model.frequencies(p)
    c, u, v = model._outer_entries(p, f, t)  # mu+- = c -+ i u, delta_entry = i v
    cos_o, sin_o = np.cos(f.omega * t), np.sin(f.omega * t)
    sin_sq = np.float_power(sin_o, 2)  # libm pow, as ** is on a float; ** squares an array
    mu_prod = c * c + u * u  # mu+ mu-
    de_sq = -(v * v)  # delta_entry^2
    de_mu_diff = -2.0 * v * u  # delta_entry (mu+ - mu-)
    ad_v = (s.a - s.d) * v
    return (
        s.a * mu_prod - s.d * de_sq - s.w * de_mu_diff,
        s.b - (s.b - s.c) * sin_sq,
        s.c + (s.b - s.c) * sin_sq,
        s.d * mu_prod - s.a * de_sq + s.w * de_mu_diff,
        s.z + 1j * ((s.b - s.c) * cos_o * sin_o),
        # w (mu-^2 - delta_entry^2) + (a - d) delta_entry mu-
        s.w * (c * c - u * u - de_sq) + ad_v * u + 1j * (s.w * (-2.0 * c * u) + ad_v * c),
    )


def _x_overlap(x, y):
    """Tr(rho sigma) of two X states given as six numbers each (floats or arrays)."""
    a, b, c, d, z, w = (u.real * v.real + u.imag * v.imag for u, v in zip(x, y))
    return a + b + c + d + 2.0 * (z + w)


def _checked_fidelity(x0, xt) -> tuple:
    """Purity of xt and fidelity to x0 (six numbers each) after trace, floor and clamp checks."""
    a, b, c, d, z, w = xt
    min_eig = np.minimum(_block_min_eigenvalue(a, d, w), _block_min_eigenvalue(b, c, z))
    if not np.all((abs(a + b + c + d - 1.0) <= TRACE_TOL) & (min_eig >= EIG_FLOOR)):
        raise ConsistencyError(f"unphysical: trace {a + b + c + d}, min eig {min_eig}")
    pur = _x_overlap(xt, xt)
    return pur, _clamp_fidelity(_x_overlap(x0, xt) / np.sqrt(_x_overlap(x0, x0) * pur))


def evolve_closed(s: states.XState, p: model.CouplingParams, t: float) -> DensityMatrix:
    """rho(t) from the closed forms, validated like any other density matrix."""
    a, b, c, d, z, w = _evolve_x(s, p, model._finite_time(t, "evolve_closed"))
    x = [[a, 0, 0, w], [0, b, z, 0], [0, z.conjugate(), c, 0], [w.conjugate(), 0, 0, d]]
    return DensityMatrix(np.array(x, dtype=complex))


def evolve_oracle(s: states.XState, p: model.CouplingParams, t: float) -> DensityMatrix:
    """rho(t) by conjugation with the series matrix exponential.

    Shares no code with the closed forms; this is the referee.
    """
    t = model._finite_time(t, "evolve_oracle")
    u = linalg.expm(-1j * t * model.hamiltonian(p))
    rho0 = states.xstate_matrix(s)
    return DensityMatrix(u @ rho0 @ linalg.dagger(u))


def overlap_evolved(s: states.XState, p: model.CouplingParams, t: float) -> float:
    """Tr(rho(0) rho(t)) straight from the six evolved numbers."""
    t = model._finite_time(t, "overlap_evolved")
    return _x_overlap((s.a, s.b, s.c, s.d, s.z, s.w), _evolve_x(s, p, t))


def scan(s: states.XState, p: model.CouplingParams, grid: TimeGrid) -> FidelityTrace:
    """Fidelity, purity and c1 - c2 = 4 Re w(t) sampled along a time grid.

    One array call of the six-number core evaluates the whole grid and is
    checked once; a failure is re-raised naming the first sample that fails
    the checks.  f_closed is added for a Bell-diagonal state.
    """
    x0 = (s.a, s.b, s.c, s.d, s.z, s.w)
    v0 = states.to_bloch(s)
    times = grid.times()
    xt = _evolve_x(s, p, times)
    try:
        pur, f_num = _checked_fidelity(x0, xt)
    except ConsistencyError:
        for k, t in enumerate(times.tolist()):  # the same checks per sample name the first failure
            try:
                _checked_fidelity(x0, [x[k] for x in xt])
            except ConsistencyError as exc:
                raise ConsistencyError(f"scan: evolution failed at sample {k} (t={t}): {exc}") from exc
        raise
    f_clo = fidelity_bell_diagonal(v0, p, times) if is_bell_diagonal(v0) else None
    cdiff = 4.0 * xt[5].real
    return FidelityTrace(times=times, f_numeric=f_num, f_closed=f_clo, purity=pur, c1_minus_c2=cdiff)


def c_difference(v: states.BlochVector, p: model.CouplingParams, t: float) -> float:
    """c1(t) - c2(t) = 4 Re w(t) for a Bell-diagonal state.

    The state is evolved in canonical (non-negative coherence) form and the
    initial sign of c1 - c2 is restored afterwards; on the Bell-diagonal
    family the two signed trajectories are exact mirror images, so this is
    lossless.
    """
    if not is_bell_diagonal(v):
        raise DomainError("c_difference: defined only for Bell-diagonal states")
    sign = 1.0 if v.c1 - v.c2 >= 0 else -1.0
    t = model._finite_time(t, "c_difference")
    return sign * 4.0 * _evolve_x(states.from_bloch(v), p, t)[5].real


def c_difference_predicted(v: states.BlochVector, p: model.CouplingParams, t: float) -> float:
    """Candidate law (c1(0) - c2(0)) (1 - 2 B^2 sin^2(eta t) / eta^2).

    This is the form `xdyn validate` confirms against the oracle.  The
    factor dips below zero whenever B^2 > Delta^2, i.e. such trajectories
    cross the c1 = c2 plane.
    """
    if not is_bell_diagonal(v):
        raise DomainError("c_difference_predicted: defined only for Bell-diagonal states")
    t = model._finite_time(t, "c_difference_predicted")
    f = model.frequencies(p)
    pulse = p.field * t * model.sinc(f.eta * t)
    return (v.c1 - v.c2) * (1.0 - 2.0 * pulse * pulse)


def c_difference_cos2(v: states.BlochVector, p: model.CouplingParams, t: float) -> float:
    """The often-quoted cos^2(eta t) decay law, kept for comparison only.

    It matches the oracle exactly when B^2 = Delta^2 and drifts otherwise;
    see `xdyn validate` for the adjudication.
    """
    if not is_bell_diagonal(v):
        raise DomainError("c_difference_cos2: defined only for Bell-diagonal states")
    return (v.c1 - v.c2) * math.cos(model.frequencies(p).eta * t) ** 2


def nominal_period(p: model.CouplingParams) -> float | None:
    """2 pi / sqrt(4 B^2 + (jx - jy)^2), or None when that diverges."""
    root = math.hypot(2.0 * p.field, p.jx - p.jy)
    if root == 0.0:
        return None
    return 2.0 * math.pi / root


def _assert_commutes(s: states.XState, p: model.CouplingParams):
    h = model.hamiltonian(model.CouplingParams(p.jx, p.jy, p.jz, 0.0))
    rho = states.xstate_matrix(s)
    defect = linalg.max_abs(h @ rho - rho @ h)
    if defect > COMMUTATOR_TOL:
        raise ConsistencyError(
            f"classify: zero-field Bell-diagonal state should commute, defect {defect}"
        )


def classify(s: states.XState, p: model.CouplingParams) -> StationarityVerdict:
    """Stationary-or-periodic verdict for an initial state.

    Bell-diagonal states are decided in closed form (checking the most
    specific reason first so the maximally mixed state is reported as
    such); anything else is decided empirically from a scan that covers a
    few periods of both the outer and inner oscillation.
    """
    v = states.to_bloch(s)
    f = model.frequencies(p)
    if is_bell_diagonal(v):
        coeffs = (v.s1, v.s2, v.c1, v.c2, v.c3)
        if all(abs(x) <= BLOCH_MATCH_TOL for x in coeffs):
            return StationarityVerdict(kind="stationary", reason="maximally_mixed")
        if p.field == 0.0:
            _assert_commutes(s, p)
            return StationarityVerdict(kind="stationary", reason="zero_field")
        if abs(v.c1 - v.c2) <= BLOCH_MATCH_TOL:
            return StationarityVerdict(kind="stationary", reason="c1_equals_c2")
        return StationarityVerdict(kind="periodic", reason="generic", period=nominal_period(p))

    # Empirical route: window covering three periods of each active mode.
    windows = []
    fastest = []
    if f.eta > 0.0:
        windows.append(3.0 * math.pi / f.eta)
        fastest.append(math.pi / f.eta)
    if f.omega != 0.0:
        windows.append(6.0 * math.pi / max(abs(f.omega), f.eta))
        fastest.append(math.pi / abs(f.omega))
    if not windows:
        # eta = omega = 0 forces field = jx = jy = 0, leaving a Hamiltonian
        # diagonal in the X basis: every X state commutes with it.
        _assert_commutes(s, p)
        return StationarityVerdict(kind="stationary", reason="generic")
    t_max = sum(windows)
    steps = min(20001, max(2001, int(math.ceil(t_max / min(fastest)) * 300) + 1))
    trace = scan(s, p, TimeGrid(t_max=t_max, steps=steps))
    if float(np.max(1.0 - trace.f_numeric)) < STATIONARY_TOL:
        return StationarityVerdict(kind="stationary", reason="generic")
    period = detect_period(trace)
    if period is None:
        return StationarityVerdict(kind="stationary", reason="generic")
    return StationarityVerdict(kind="periodic", reason="generic", period=period)


def detect_period(trace: FidelityTrace, tol: float = STATIONARY_TOL) -> float | None:
    """Mean spacing of refined fidelity minima, or None for a flat trace.

    Grid minima are kept when they dip at least halfway to the trace's
    deepest excursion, then each is refined with a three-point parabola.
    Fewer than two usable minima raises InsufficientSpanError since no
    spacing exists to average.  The mean spacing is an empirical estimate:
    exact for single-mode traces, a summary statistic for mixed ones.
    """
    f = np.asarray(trace.f_numeric, dtype=float)
    times = np.asarray(trace.times, dtype=float)
    if len(f) < 3:
        raise InsufficientSpanError("detect_period: need at least 3 samples")
    amplitude = float(np.max(1.0 - f))
    if amplitude < tol:
        return None
    threshold = 1.0 - 0.5 * amplitude
    dt = times[1] - times[0]
    refined = []
    for i in range(1, len(f) - 1):
        if f[i] < f[i - 1] and f[i] <= f[i + 1] and f[i] <= threshold:
            denom = f[i - 1] - 2.0 * f[i] + f[i + 1]
            offset = 0.0
            if denom > 0.0:
                offset = 0.5 * dt * (f[i - 1] - f[i + 1]) / denom
            refined.append(times[i] + offset)
    if len(refined) < 2:
        raise InsufficientSpanError(
            f"detect_period: found {len(refined)} usable minima, need at least 2"
        )
    spacings = np.diff(refined)
    return float(np.mean(spacings))
