"""Time evolution of X states, two independent routes, and trajectory tools.

evolve_closed assembles rho(t) from the per-element closed forms;
evolve_oracle conjugates with the series matrix exponential and knows
nothing about them.  They must agree entrywise to 1e-10, which is the
load-bearing check of the whole package (`xdyn validate`, and the test
suite, exercise it across parameter space including the degenerate
eta -> 0 corner).  scan's c1 - c2 column is read off rho(t); the printed
laws for it are judged in `xdyn.validate`, not kept here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, model, states
from .errors import (
    ConsistencyError,
    InsufficientSpanError,
    RangeError,
    first_bad,
)
from .fidelity import BELL_DIAGONAL_TOL, EIG_FLOOR, TRACE_TOL, DensityMatrix, _block_min_eigenvalue, _clamp_fidelity
from .fidelity import fidelity_bell_diagonal, is_bell_diagonal

# A trajectory counts as stationary when the fidelity never drops further
# than this below 1.
STATIONARY_TOL = 1e-10

# Two oscillating modes share a period when |Omega|/eta is n/q with
# q <= MAX_DENOMINATOR, to this relative tolerance.
COMMENSURATE_TOL = 1e-12
MAX_DENOMINATOR = 12

# Largest grid a TimeGrid accepts.  A scan holds a few dozen arrays of the
# grid's length at once, about 170 MB at this limit.
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
        t_max = self.t_max
        if isinstance(t_max, bool) or not isinstance(t_max, (int, float)):
            raise RangeError(f"TimeGrid.t_max must be a number, got {t_max!r}")
        if not (math.isfinite(t_max) and t_max > 0):
            raise RangeError(f"TimeGrid.t_max must be finite and positive, got {t_max}")
        if isinstance(self.steps, bool) or not isinstance(self.steps, int):
            raise RangeError(f"TimeGrid.steps must be an int, got {self.steps!r}")
        if self.steps < 2:
            raise RangeError(f"TimeGrid.steps must be at least 2, got {self.steps}")
        if self.steps > MAX_STEPS:
            raise RangeError(f"TimeGrid.steps must be at most {MAX_STEPS}, got {self.steps}")

    def times(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # near DBL_MAX the last sample overflows before linspace sets it to t_max
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
    """Outcome of ``classify``: stationary, periodic or quasi_periodic, with the reason.

    period is present exactly for periodic verdicts; mode_periods, the
    periods (pi/eta, pi/|Omega|) of the two modes, exactly for
    quasi_periodic ones.  reason is maximally_mixed, zero_field or
    c1_equals_c2 for a stationary Bell-diagonal state (I/4, B = 0 or
    c1 = c2, the most specific first), commutes for any other stationary
    state, and generic for every state that moves.
    """

    kind: str
    reason: str
    period: float | None = None
    mode_periods: tuple[float, float] | None = None


def _evolve_x(s: states.XState, p: model.CouplingParams, t) -> tuple:
    """rho(t) as six numbers (a, b, c, d, z, w), z = rho[1, 2] and w = rho[0, 3].

    t is a float or an array of them that has passed model._finite_phases,
    and s and p may be stacks (XState and CouplingParams with array
    fields); all three broadcast together, so stacks of shape (n, 1)
    against times of shape (n, k) give k samples of each of n
    trajectories.  mu+- and delta_entry mix a, d and w, the inner block
    rotates by omega*t.  Complex products are written out in real
    arithmetic, in evaluation order, so a float and an array give the same
    bits.
    """
    c, u, v = model._outer_entries(p, t)  # mu+- = c -+ i u, delta_entry = i v
    cos_o, sin_o = np.cos(p.omega * t), np.sin(p.omega * t)
    sin_sq = model._pow2(sin_o)
    mu_prod = c * c + u * u  # mu+ mu-
    de_sq = -(v * v)  # delta_entry^2
    de_mu_diff = -2.0 * v * u  # delta_entry (mu+ - mu-)
    ad_v = (s.a - s.d) * v
    del v  # each grid-length intermediate is released after its last use
    a = s.a * mu_prod - s.d * de_sq - s.w * de_mu_diff
    b = s.b - (s.b - s.c) * sin_sq
    c_t = s.c + (s.b - s.c) * sin_sq
    del sin_sq
    d = s.d * mu_prod - s.a * de_sq + s.w * de_mu_diff
    del mu_prod, de_mu_diff
    z = s.z + 1j * ((s.b - s.c) * cos_o * sin_o)
    del cos_o, sin_o
    # w (mu-^2 - delta_entry^2) + (a - d) delta_entry mu-
    w = s.w * (c * c - u * u - de_sq) + ad_v * u + 1j * (s.w * (-2.0 * c * u) + ad_v * c)
    return a, b, c_t, d, z, w


def _x_overlap(x, y):
    """Tr(rho sigma) of two X states given as six numbers each (floats or arrays)."""
    a, b, c, d, z, w = (u.real * v.real + u.imag * v.imag for u, v in zip(x, y))
    return a + b + c + d + 2.0 * (z + w)


def _checked_fidelity(x0, xt, where=None) -> tuple:
    """Purity of xt and fidelity to x0 (six numbers each) after trace, floor and clamp checks.

    Each check is one array pass, and a failure names its first sample as _clamp_fidelity does."""
    a, b, c, d, z, w = xt
    trace = a + b + c + d
    min_eig = np.minimum(_block_min_eigenvalue(a, d, w), _block_min_eigenvalue(b, c, z))
    bad = np.logical_not((abs(trace - 1.0) <= TRACE_TOL) & (min_eig >= EIG_FLOOR))  # NaN fails too
    at, tr = first_bad(trace, bad)
    if at is not None:
        name = "unphysical" + at if where is None else where(bad) + "unphysical"
        raise ConsistencyError(f"{name}: trace {tr}, min eig {first_bad(min_eig, bad)[1]}")
    pur = _x_overlap(xt, xt)
    return pur, _clamp_fidelity(_x_overlap(x0, xt) / np.sqrt(_x_overlap(x0, x0) * pur), where)


def evolve_closed(s: states.XState, p: model.CouplingParams, t: float) -> DensityMatrix:
    """rho(t) from the closed forms, validated like any other density matrix.

    Stacks of states, couplings and times (one each per element) give a
    stacked DensityMatrix.
    """
    return DensityMatrix(states._x_matrix(*_evolve_x(s, p, model._finite_phases(p, t, "evolve_closed"))))


def evolve_oracle(s: states.XState, p: model.CouplingParams, t: float) -> DensityMatrix:
    """rho(t) by conjugation with the series matrix exponential.

    Shares no code with the closed forms; this is the referee.  The time
    is first checked to keep every phase finite, as the closed forms
    check it.  Stacks give one stacked expm call and a stacked
    DensityMatrix.
    """
    t = model._finite_phases(p, t, "evolve_oracle")
    u = linalg.expm(-1j * np.asarray(t)[..., None, None] * model.hamiltonian(p))
    rho0 = states.xstate_matrix(s)
    return DensityMatrix(u @ rho0 @ linalg.dagger(u))


def scan(s: states.XState, p: model.CouplingParams, grid: TimeGrid) -> FidelityTrace:
    """Fidelity, purity and c1 - c2 = 4 Re w(t) sampled along a time grid.

    One array call of the six-number core evaluates the whole grid and is
    checked once; a failure names the first sample that fails the checks,
    by its index and time.  f_closed is added for a Bell-diagonal state.
    """
    x0 = (s.a, s.b, s.c, s.d, s.z, s.w)
    v0 = states.to_bloch(s)
    times = model._finite_phases(p, grid.times(), "scan")
    xt = _evolve_x(s, p, times)

    def where(bad):  # the first failing sample, by index and time
        at, t = first_bad(times, bad)
        return f"scan: evolution failed at sample {at.strip('[]')} (t={t}): "

    pur, f_num = _checked_fidelity(x0, xt, where)
    f_clo = fidelity_bell_diagonal(v0, p, times) if is_bell_diagonal(v0) else None
    cdiff = 4.0 * xt[5].real
    return FidelityTrace(times=times, f_numeric=f_num, f_closed=f_clo, purity=pur, c1_minus_c2=cdiff)


def _period(multiple: int, rate: float) -> float:
    """multiple pi / rate for rate > 0; RangeError when that overflows a float."""
    period = multiple * (math.pi / rate)
    if math.isinf(period):
        raise RangeError(f"the period {multiple} * pi / {rate!r} overflows a float")
    return period


def _mode_amplitudes(s: states.XState, p: model.CouplingParams) -> tuple:
    """(B_eta, C): the amplitudes in Tr rho(0) rho(t) = A + B_eta cos 2 eta t + C cos 2 Omega t.

    B_eta = ((a - d) Delta - 2 B w)^2 / (2 eta^2) and C = (b - c)^2 / 2, with
    A = purity - B_eta - C.  B_eta is 0 at eta = 0, where B = Delta = 0.
    Floats or arrays (stacks).  (2 w) B cannot overflow where 2 B can.
    Reading p.delta refuses couplings whose frequencies overflow.
    """
    r = ((s.a - s.d) * p.delta - 2.0 * s.w * p.field) / (p.eta + (p.eta == 0.0))
    return 0.5 * r * r, 0.5 * (s.b - s.c) * (s.b - s.c)


def _stationary_reason(s: states.XState, p: model.CouplingParams) -> str:
    """Why a stationary state is so: the most specific Bell-diagonal reason, else commutes."""
    v = states.to_bloch(s)
    if not is_bell_diagonal(v):
        return "commutes"
    if all(abs(x) <= BELL_DIAGONAL_TOL for x in (v.s1, v.s2, v.c1, v.c2, v.c3)):
        return "maximally_mixed"
    if p.field == 0.0:
        return "zero_field"
    if abs(v.c1 - v.c2) <= BELL_DIAGONAL_TOL:
        return "c1_equals_c2"
    return "commutes"


def classify(s: states.XState, p: model.CouplingParams) -> StationarityVerdict:
    """Stationary, periodic or quasi-periodic verdict for an initial state.

    Every state is decided from its two mode amplitudes: a mode at zero
    frequency is constant, and with B and C the amplitudes of the others,
    1 - F(t) never exceeds 2 (B + C) / purity, so the state is stationary
    (it commutes with H) when that bound is below STATIONARY_TOL.  The
    Bloch coefficients of a stationary state only name its reason.  A
    mode is live when it alone can move 1 - F by STATIONARY_TOL / 2.  One
    live mode gives its period: pi/eta for eta, pi/|Omega| for Omega.  Two
    give q pi/eta when |Omega|/eta = n/q in lowest terms with
    q <= MAX_DENOMINATOR (to COMMENSURATE_TOL), and quasi_periodic
    otherwise.
    """
    b_eta, c = _mode_amplitudes(s, p)
    if p.omega == 0.0:
        c = 0.0
    budget = STATIONARY_TOL * s.purity
    if 2.0 * (b_eta + c) < budget:
        return StationarityVerdict(kind="stationary", reason=_stationary_reason(s, p))
    live_eta, live_omega = 4.0 * b_eta >= budget, 4.0 * c >= budget
    if not live_omega:
        return StationarityVerdict(kind="periodic", reason="generic", period=_period(1, p.eta))
    if not live_eta:
        return StationarityVerdict(kind="periodic", reason="generic", period=_period(1, abs(p.omega)))
    ratio = abs(p.omega) / p.eta
    for q in range(1, MAX_DENOMINATOR + 1):
        x = ratio * q
        if math.isfinite(x) and abs(x - round(x)) <= COMMENSURATE_TOL * x:
            return StationarityVerdict(kind="periodic", reason="generic", period=_period(q, p.eta))
    return StationarityVerdict(
        kind="quasi_periodic", reason="generic", mode_periods=(_period(1, p.eta), _period(1, abs(p.omega)))
    )


def detect_period(trace: FidelityTrace) -> float | None:
    """Mean spacing of refined fidelity minima, or None for a trace flat to STATIONARY_TOL.

    Grid minima are kept when they dip at least halfway to the trace's
    deepest excursion, then each is refined with a three-point parabola.
    Both steps are array operations over the whole trace that apply, to
    each element, the comparisons and arithmetic of a per-sample loop, so
    the estimate matches that loop (kept as the reference in the tests)
    bit for bit.
    Fewer than two usable minima raises InsufficientSpanError since no
    spacing exists to average.  The mean spacing is an empirical estimate
    that backs the ``period`` command: it approaches the period classify
    gives in closed form for a single-mode trace, and is a summary
    statistic for a two-mode one.
    """
    f = np.asarray(trace.f_numeric, dtype=float)
    times = np.asarray(trace.times, dtype=float)
    if len(f) < 3:
        raise InsufficientSpanError("detect_period: need at least 3 samples")
    amplitude = float(np.max(1.0 - f))
    if amplitude < STATIONARY_TOL:
        return None
    threshold = 1.0 - 0.5 * amplitude
    dt = times[1] - times[0]
    prev, mid, nxt = f[:-2], f[1:-1], f[2:]
    at = np.flatnonzero((mid < prev) & (mid <= nxt) & (mid <= threshold))
    prev, mid, nxt = prev[at], mid[at], nxt[at]
    denom = prev - 2.0 * mid + nxt
    offset = np.zeros(len(at))
    up = denom > 0.0  # a parabola that opens upwards; the others keep the grid time
    offset[up] = 0.5 * dt * (prev[up] - nxt[up]) / denom[up]
    refined = times[at + 1] + offset
    if len(refined) < 2:
        raise InsufficientSpanError(
            f"detect_period: found {len(refined)} usable minima, need at least 2"
        )
    spacings = np.diff(refined)
    return float(np.mean(spacings))
