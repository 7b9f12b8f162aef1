"""Closed-form evolution against the expm oracle, scans, classification,
and period detection."""
import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xdyn import (
    BlochVector,
    ConsistencyError,
    CouplingParams,
    InsufficientSpanError,
    InvalidInputError,
    RangeError,
    TimeGrid,
    XState,
    bloch_from_density,
    classify,
    detect_period,
    evolve_closed,
    evolve_oracle,
    expm,
    fidelity,
    fidelity_bell_diagonal,
    from_bloch,
    hamiltonian,
    preset_bell_diagonal,
    preset_p_mixture,
    preset_werner,
    propagator,
    purity,
    scan,
    sinc,
    to_bloch,
    to_density,
    xstate_matrix,
)
from xdyn import dynamics
from xdyn.dynamics import FidelityTrace
from xdyn.validate import _c_diff_cos2, _c_diff_sin2, _commuting_from, _population_aggregate

from conftest import max_abs, random_bell_diagonal, random_params, random_xstate

PI_OVER_SQRT2 = 2.2214414690791831


def _pi_over_eta(p: CouplingParams) -> float:
    return math.pi / p.eta


def test_evolve_closed_matches_oracle(rng):
    worst = 0.0
    for k in range(300):
        s = random_xstate(rng)
        p = random_params(rng)
        if k % 10 == 3:
            p = CouplingParams(jx=p.jx, jy=p.jx, jz=p.jz, field=p.field)
        if k % 10 == 6:
            p = CouplingParams(jx=p.jx, jy=p.jx + 1e-11, jz=p.jz, field=p.field)
        if k % 10 == 9:
            p = CouplingParams(jx=p.jx, jy=p.jy, jz=p.jz, field=0.0)
        t = float(rng.uniform(0.0, 10.0))
        diff = evolve_closed(s, p, t).matrix - evolve_oracle(s, p, t).matrix
        worst = max(worst, max_abs(diff))
    assert worst < 1e-12


def test_evolve_preserves_x_shape(rng):
    m = evolve_closed(random_xstate(rng), random_params(rng), 2.7).matrix
    for i in range(4):
        for j in range(4):
            if i != j and i + j != 3:
                assert m[i, j] == 0.0


def test_evolve_frozen_bell_flip():
    # pure outer Bell state, jx = jy, B = 1: after a quarter turn the outer
    # coherence has flipped sign, an orthogonal state
    s = preset_p_mixture("phi_plus", 1.0)
    p = CouplingParams(jx=1.0, jy=1.0, jz=0.7, field=1.0)
    rho = evolve_closed(s, p, math.pi / 2.0)
    assert abs(rho.matrix[0, 3] - (-0.5)) < 1e-15
    assert abs(rho.matrix[0, 0] - 0.5) < 1e-15
    assert fidelity(to_density(s), rho) < 1e-15


def test_evolve_inner_coherence_sign():
    s = XState(a=0.25, b=0.4, c=0.1, d=0.25, z=0.15, w=0.2)
    p = CouplingParams(jx=1.2, jy=0.4, jz=0.3, field=0.8)
    t = 0.9
    closed = evolve_closed(s, p, t).matrix[1, 2]
    oracle = evolve_oracle(s, p, t).matrix[1, 2]
    assert abs(closed - oracle) < 1e-14
    # b > c and cos(0.72) sin(0.72) > 0 makes the imaginary part positive
    assert closed.imag > 0.05


def test_evolve_rejects_non_finite_time(rng):
    s, p = random_xstate(rng), random_params(rng)
    with pytest.raises(InvalidInputError):
        evolve_closed(s, p, math.inf)
    with pytest.raises(InvalidInputError):
        evolve_oracle(s, p, math.nan)


def test_one_point_calls_reject_non_finite_time(rng):
    s, p = random_xstate(rng), random_params(rng)
    v = to_bloch(random_bell_diagonal(rng))
    for t in (math.inf, -math.inf, math.nan):
        for times in (t, np.array([0.0, t])):
            with pytest.raises(InvalidInputError, match="fidelity_bell_diagonal: t must be finite"):
                fidelity_bell_diagonal(v, p, times)


@pytest.mark.parametrize(
    "form",
    [
        lambda s, v, p, t: fidelity_bell_diagonal(v, p, t),
        lambda s, v, p, t: evolve_oracle(s, p, t),
    ],
    ids=["fidelity_bell_diagonal", "evolve_oracle"],
)
def test_library_forms_refuse_overflowing_phases(form):
    # the same RangeError propagator raises, before any warning or math domain error
    s = preset_werner(0.3)
    p = CouplingParams(1e10, 0.0, 0.0, 0.0)
    with pytest.raises(RangeError, match=r"t = 1e\+300 overflows a phase"):
        form(s, to_bloch(s), p, 1e300)
    with pytest.raises(RangeError, match=r"t = 1e\+300 overflows a phase"):
        propagator(p, 1e300)


def test_overlap_evolved_routes(rng):
    # Tr(rho(0) rho(t)) from the six evolved numbers, as scan and validate take it,
    # against the printed population aggregate plus the term it misses
    for _ in range(50):
        s = random_xstate(rng)
        p = random_params(rng)
        t = float(rng.uniform(0.0, 8.0))
        direct = dynamics._x_overlap((s.a, s.b, s.c, s.d, s.z, s.w), dynamics._evolve_x(s, p, t))
        s2e = (t * sinc(p.eta * t)) ** 2
        via_form = _population_aggregate(s, p, t) + 4.0 * s.w * (s.a - s.d) * p.field * p.delta * s2e
        assert abs(direct - via_form) < 1e-12


def test_time_grid_validation():
    with pytest.raises(RangeError):
        TimeGrid(t_max=0.0, steps=100)
    with pytest.raises(RangeError):
        TimeGrid(t_max=1.0, steps=1)
    with pytest.raises(RangeError):
        TimeGrid(t_max=1.0, steps=True)
    for t_max in ("2", None, True, 1j):
        with pytest.raises(RangeError, match=rf"^TimeGrid.t_max must be a number, got {t_max!r}$"):
            TimeGrid(t_max=t_max, steps=5)
    with pytest.raises(RangeError, match=r"^TimeGrid.t_max must be a number, got array\("):
        TimeGrid(t_max=np.array([1.0, 2.0]), steps=5)  # one grid, not a stack of them
    g = TimeGrid(t_max=2.0, steps=5)
    assert np.allclose(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0], atol=0)


def test_fidelity_trace_length_check():
    with pytest.raises(ConsistencyError):
        FidelityTrace(
            times=np.zeros(3),
            f_numeric=np.zeros(2),
            f_closed=None,
            purity=np.zeros(3),
            c1_minus_c2=np.zeros(3),
        )
    with pytest.raises(ConsistencyError, match="f_closed length differs from times"):
        FidelityTrace(
            times=np.zeros(3),
            f_numeric=np.zeros(3),
            f_closed=np.zeros(2),
            purity=np.zeros(3),
            c1_minus_c2=np.zeros(3),
        )


def test_scan_conserves_everything(rng):
    s = random_xstate(rng)
    p = random_params(rng)
    trace = scan(s, p, TimeGrid(t_max=6.0, steps=120))
    assert trace.f_numeric[0] == 1.0
    assert np.max(np.abs(trace.purity - s.purity)) < 1e-13
    assert trace.f_closed is None or np.max(np.abs(trace.f_closed - trace.f_numeric)) < 1e-12


def test_scan_bell_diagonal_closed_column(rng):
    s = random_bell_diagonal(rng)
    p = random_params(rng)
    trace = scan(s, p, TimeGrid(t_max=5.0, steps=100))
    assert trace.f_closed is not None
    assert np.max(np.abs(trace.f_closed - trace.f_numeric)) < 1e-12
    # the c1 - c2 column obeys the confirmed linear-in-sin^2 law
    v = to_bloch(s)
    predicted = np.array([_c_diff_sin2(v, p, float(t)) for t in trace.times])
    assert np.max(np.abs(trace.c1_minus_c2 - predicted)) < 1e-12


def test_scan_polarized_state_has_no_closed_column(rng):
    s = XState(a=0.5, b=0.2, c=0.2, d=0.1, z=0.1, w=0.1)
    trace = scan(s, random_params(rng), TimeGrid(t_max=3.0, steps=30))
    assert trace.f_closed is None


def test_scan_matches_matrix_route(rng):
    # the six-number scan against fidelity, purity and Bloch coefficients of
    # the validated evolved matrix, on generic and Bell-diagonal states
    worst = 0.0
    for k in range(100):  # 50 generic, 50 Bell-diagonal
        s = random_bell_diagonal(rng) if k % 2 else random_xstate(rng)
        p = random_params(rng)
        trace = scan(s, p, TimeGrid(t_max=float(rng.uniform(1.0, 10.0)), steps=9))
        rho0 = to_density(s)
        for j, t in enumerate(trace.times):
            rho_t = evolve_closed(s, p, float(t))
            v = bloch_from_density(rho_t)
            worst = max(
                worst,
                abs(trace.f_numeric[j] - fidelity(rho0, rho_t)),
                abs(trace.purity[j] - purity(rho_t)),
                abs(trace.c1_minus_c2[j] - (v.c1 - v.c2)),
            )
    assert worst < 1e-14


def _with_sample_replaced(core, k, sample=(1.5, 0.0, 0.0, -0.5, 0j, 0j)):
    """_evolve_x with sample k replaced, by diag(1.5, 0, 0, -0.5) (trace 1, min eig -0.5) unless given."""

    def faulty(s, p, t):
        xt = tuple(np.array(x) for x in core(s, p, t))
        for x, value in zip(xt, sample):
            x[k] = value
        return xt

    return faulty


@pytest.mark.parametrize("k", [0, 4, 10])
@pytest.mark.parametrize(
    "mix, bad, fault",
    [
        (0.6, (0.25, 0.25, 0.25, 0.25 + 1e-9, 0j, 0j), "unphysical"),  # trace off by 1e-9
        # inner block at -1e-9
        (0.6, (0.25, 0.25, 0.25, 0.25, (0.25 + 1e-9) * cmath.exp(0.7j), 0j), "unphysical"),
        (0.6, (0.5 + 1e-9, 0.25, 0.25, -1e-9, 0j, 0j), "unphysical"),  # outer block at -1e-9
        # outer block at -5e-11 passes the floor, but its overlap with the
        # pure initial Bell state is -5e-11: the fidelity clamp fails
        (1.0, (0.5, 0.0, 0.0, 0.5, 0j, -0.5 - 5e-11 + 0j), "fidelity: value"),
    ],
    ids=["trace", "inner_block", "outer_block", "clamp"],
)
def test_scan_names_unphysical_sample(monkeypatch, k, mix, bad, fault):
    grid = TimeGrid(t_max=2.0, steps=11)
    t_bad = grid.times()[k]
    monkeypatch.setattr(dynamics, "_evolve_x", _with_sample_replaced(dynamics._evolve_x, k, bad))
    with pytest.raises(ConsistencyError, match=rf"at sample {k} \(t={t_bad}\)") as exc:
        scan(preset_p_mixture("phi_plus", mix), CouplingParams(1.0, 0.4, 0.3, 0.8), grid)
    assert fault in str(exc.value)


def test_scan_names_its_last_sample_of_1e5(monkeypatch):
    # one array pass judges the grid and names the sample: no per-sample re-run
    checked, calls = dynamics._checked_fidelity, []
    monkeypatch.setattr(dynamics, "_checked_fidelity", lambda *args: calls.append(1) or checked(*args))
    monkeypatch.setattr(dynamics, "_evolve_x", _with_sample_replaced(dynamics._evolve_x, -1))
    with pytest.raises(ConsistencyError) as exc:
        scan(preset_p_mixture("phi_plus", 0.6), CouplingParams(1.0, 0.4, 0.3, 0.8), TimeGrid(10.0, 100_000))
    assert str(exc.value) == "scan: evolution failed at sample 99999 (t=10.0): unphysical: trace 1.0, min eig -0.5"
    assert len(calls) == 1


def test_scan_conservation_names_the_stack_index(monkeypatch):
    from xdyn import validate

    monkeypatch.setattr(validate, "_evolve_x", _with_sample_replaced(dynamics._evolve_x, (2, 17)))
    with pytest.raises(ConsistencyError) as exc:
        validate._check_conservation(np.random.default_rng(0), 100)  # one block of (4, 40) samples
    assert str(exc.value) == "unphysical[2, 17]: trace 1.0, min eig -0.5"


def test_clamp_names_its_first_bad_value():
    # a pure Bell state against an outer block at -5e-11: the floor passes, the clamp fails
    s = preset_p_mixture("phi_plus", 1.0)
    p = CouplingParams(np.full((3, 1), 1.0), 0.4, 0.3, 0.8)
    outside = (0.5, 0.0, 0.0, 0.5, 0j, -0.5 - 5e-11 + 0j)
    evolve = _with_sample_replaced(dynamics._evolve_x, (1, 6), outside)
    xt = evolve(s, p, TimeGrid(2.0, 11).times() + np.zeros((3, 1)))
    with pytest.raises(ConsistencyError, match=r"^fidelity\[1, 6\]: value -5\.0\d*e-11 outside \[0, 1\] beyond"):
        dynamics._checked_fidelity((s.a, s.b, s.c, s.d, s.z, s.w), xt)
    with pytest.raises(ConsistencyError, match=r"^fidelity: value -5e-11 outside \[0, 1\] beyond round-off$"):
        dynamics._clamp_fidelity(-5e-11)


def test_time_grid_step_limit():
    # checked on construction, before any grid is built
    assert TimeGrid(t_max=1.0, steps=dynamics.MAX_STEPS).steps == dynamics.MAX_STEPS
    with pytest.raises(RangeError, match=f"at most {dynamics.MAX_STEPS}"):
        TimeGrid(t_max=1.0, steps=dynamics.MAX_STEPS + 1)


def test_scan_kernel_matches_one_point_calls(rng):
    # the grid evaluation and the one-point calls are the same arithmetic,
    # over enough samples that a squaring which rounds unlike pow shows up
    for k in range(100):
        s = random_bell_diagonal(rng) if k % 2 else random_xstate(rng)
        p = random_params(rng)
        times = TimeGrid(t_max=float(rng.uniform(1.0, 10.0)), steps=51).times()
        grid = dynamics._evolve_x(s, p, times)
        for j, t in enumerate(times.tolist()):
            assert [x[j] for x in grid] == list(dynamics._evolve_x(s, p, t))


def test_c_difference_matches_oracle(rng):
    # scan's c1_minus_c2 column, 4 Re w(t), against the oracle's Bloch
    # coefficients and the confirmed linear-in-sin^2 law
    worst = 0.0
    for _ in range(60):
        s = random_bell_diagonal(rng)
        v = to_bloch(s)
        p = random_params(rng)
        trace = scan(s, p, TimeGrid(t_max=float(rng.uniform(0.0, 8.0)), steps=2))
        for t, got in zip(trace.times.tolist(), trace.c1_minus_c2.tolist()):
            ref = bloch_from_density(evolve_oracle(s, p, t).matrix)
            assert abs(got - (ref.c1 - ref.c2)) < 1e-12
            worst = max(worst, abs(got - _c_diff_sin2(v, p, t)))
    assert worst < 1e-12


def test_c_difference_crosses_plane_when_field_dominates():
    # B^2 > Delta^2: the factor 1 - 2 B^2 sin^2/eta^2 turns negative
    v = BlochVector(s1=0.0, s2=0.0, c1=0.7, c2=-0.7, c3=0.7)
    p = CouplingParams(jx=1.0, jy=1.0, jz=0.5, field=1.0)
    trace = scan(from_bloch(v), p, TimeGrid(t_max=math.pi, steps=3))
    assert trace.times[1] == math.pi / 2.0
    assert trace.c1_minus_c2[1] < -1.39
    # the quoted cos^2 law cannot go negative and misses this entirely
    assert _c_diff_cos2(v, p, math.pi / 2.0) == pytest.approx(0.0, abs=1e-15)


def test_c_difference_no_crossing_when_anisotropy_dominates():
    v = BlochVector(s1=0.0, s2=0.0, c1=0.7, c2=-0.7, c3=0.7)
    p = CouplingParams(jx=2.3, jy=0.3, jz=0.5, field=0.3)  # delta = 1, B = 0.3
    trace = scan(from_bloch(v), p, TimeGrid(t_max=12.0, steps=241))
    assert trace.c1_minus_c2.min() > 0.0


def test_nominal_period_frozen():
    # the period command's nominal_period is classify's period: pi/eta for a moving Bell-diagonal state
    s = preset_p_mixture("phi_plus", 0.5)
    assert abs(classify(s, CouplingParams(1.0, 1.0, 0.3, 0.5)).period - 2.0 * math.pi) < 1e-15
    assert abs(classify(s, CouplingParams(2.0, 0.0, 0.0, 1.0)).period - PI_OVER_SQRT2) < 1e-15
    verdict = classify(s, CouplingParams(1.0, 1.0, 0.9, 0.0))  # eta = 0
    assert (verdict.kind, verdict.reason, verdict.period) == ("stationary", "zero_field", None)


def test_classify_maximally_mixed_takes_precedence():
    s = preset_werner(0.5)
    for field in (0.0, 1.3):
        verdict = classify(s, CouplingParams(1.0, 0.2, 0.5, field))
        assert verdict.kind == "stationary"
        assert verdict.reason == "maximally_mixed"
        assert verdict.period is None


def test_classify_zero_field_takes_precedence_over_c1_equals_c2():
    verdict = classify(preset_werner(0.8), CouplingParams(1.0, 0.2, 0.5, 0.0))
    assert (verdict.kind, verdict.reason) == ("stationary", "zero_field")


def test_classify_c1_equals_c2():
    verdict = classify(preset_werner(0.8), CouplingParams(1.0, 1.0, 0.5, 1.5))
    assert (verdict.kind, verdict.reason) == ("stationary", "c1_equals_c2")
    # all three Bloch coefficients sit at (2x-1)/3 = 0.2
    v = to_bloch(preset_werner(0.8))
    assert abs(v.c1 - 0.2) < 1e-15 and abs(v.c1 - v.c2) < 1e-15


def test_classify_periodic_bell_diagonal():
    verdict = classify(preset_p_mixture("phi_plus", 0.5), CouplingParams(1.0, 1.0, 0.5, 0.5))
    assert verdict.kind == "periodic"
    assert verdict.reason == "generic"
    assert abs(verdict.period - 2.0 * math.pi) < 1e-12


def test_classify_psi_mixtures_stationary_any_field(rng):
    for kind in ("psi_plus", "psi_minus"):
        s = preset_p_mixture(kind, 0.6)
        verdict = classify(s, random_params(rng))
        assert verdict.kind == "stationary"


def test_classify_bell_diagonal_in_a_weak_field_is_stationary():
    # the eta mode moves 1 - F by under 1e-18, below STATIONARY_TOL: no period, and
    # neither B = 0 nor c1 = c2 holds, so the reason is commutes
    verdict = classify(preset_bell_diagonal(0.3, -0.2, 0.1), CouplingParams(1.0, 0.0, 0.0, 1e-9))
    assert (verdict.kind, verdict.reason, verdict.period) == ("stationary", "commutes", None)


def test_classify_is_continuous_across_the_bell_diagonal_tolerance(rng):
    # a Bell-diagonal state and its twin with s1 = +-2e-12, just outside BELL_DIAGONAL_TOL,
    # get the same kind; fields over twelve decades put pairs on both sides of STATIONARY_TOL
    kinds = set()
    for k in range(300):
        s = random_bell_diagonal(rng)
        v = to_bloch(s)
        twin = from_bloch(BlochVector((-1.0) ** k * 2e-12, 0.0, v.c1, v.c2, v.c3))
        p = random_params(rng)
        p = CouplingParams(p.jx, p.jy, p.jz, 10.0 ** rng.uniform(-12.0, 0.0))
        kind = classify(s, p).kind
        assert classify(twin, p).kind == kind, (v, p)
        kinds.add(kind)
    assert kinds == {"stationary", "periodic"}


def test_classify_non_bell_stationary_commutes():
    # polarized but commuting: diagonal outer block, inner aligned with
    # the exchange term, jx = jy so the outer coupling vanishes
    s = XState(a=0.4, b=0.2, c=0.2, d=0.2, z=0.1, w=0.0)
    assert abs(to_bloch(s).s1) > 0.1  # genuinely outside the Bell family
    verdict = classify(s, CouplingParams(1.0, 1.0, 0.4, 0.9))
    assert (verdict.kind, verdict.reason) == ("stationary", "commutes")
    assert verdict.period is None and verdict.mode_periods is None


def test_classify_non_bell_periodic():
    # two live modes: eta = hypot(0.9, 0.4) and Omega = 0.9 are incommensurate
    s = XState(a=0.4, b=0.25, c=0.15, d=0.2, z=0.1, w=0.15)
    p = CouplingParams(1.3, 0.5, 0.2, 0.9)
    verdict = classify(s, p)
    assert (verdict.kind, verdict.reason, verdict.period) == ("quasi_periodic", "generic", None)
    assert verdict.mode_periods == (_pi_over_eta(p), math.pi / 0.9)


def test_classify_free_hamiltonian_everything_stationary():
    s = XState(a=0.4, b=0.25, c=0.15, d=0.2, z=0.1, w=0.15)
    verdict = classify(s, CouplingParams(0.0, 0.0, 0.4, 0.0))
    assert (verdict.kind, verdict.reason) == ("stationary", "commutes")


def _classify_empirically(s, p) -> bool:
    """Whether a state is stationary, by the scan classify made before its closed form.

    The reference for the closed form: a window of three periods of each
    mode, 300 samples per period of the fastest, stationary when 1 - F
    stays below STATIONARY_TOL on the whole grid.
    """
    windows, fastest = [], []
    if p.eta > 0.0:
        windows.append(3.0 * math.pi / p.eta)
        fastest.append(math.pi / p.eta)
    if p.omega != 0.0:
        windows.append(6.0 * math.pi / max(abs(p.omega), p.eta))
        fastest.append(math.pi / abs(p.omega))
    if not windows:
        return True  # eta = omega = 0: H is diagonal and every X state commutes with it
    t_max = sum(windows)
    steps = min(20001, max(2001, int(math.ceil(t_max / min(fastest)) * 300) + 1))
    trace = scan(s, p, TimeGrid(t_max=t_max, steps=steps))
    return float(np.max(1.0 - trace.f_numeric)) < dynamics.STATIONARY_TOL


def _state_at(stack, i) -> XState:
    return XState(*(float(getattr(stack, n)[i]) for n in "abcdzw"))


def _params_at(stack, i) -> CouplingParams:
    return CouplingParams(*(float(getattr(stack, n)[i]) for n in ("jx", "jy", "jz", "field")))


def test_classify_agrees_with_the_empirical_route(rng):
    # 250 generic draws and 250 on the stationary family
    family_states, family_params = _commuting_from(rng.random((250, 9)))
    stationary = 0
    for k in range(500):
        if k % 2:
            s, p = _state_at(family_states, k // 2), _params_at(family_params, k // 2)
        else:
            s, p = random_xstate(rng), random_params(rng)
        verdict = classify(s, p)
        assert (verdict.kind == "stationary") == _classify_empirically(s, p), (s, p, verdict)
        stationary += verdict.kind == "stationary"
    assert stationary >= 250


# Grid values keep each draw either on the stationary family or clearly off
# it, away from the band between the two tolerances (a commutator of 1e-12
# against a fidelity loss of 1e-10, quadratic in the amplitudes).
_GRID_FREQUENCY = st.integers(-20, 20).map(lambda n: n / 10.0)


@settings(max_examples=300, deadline=None)
@given(
    pops=st.lists(st.integers(1, 20), min_size=4, max_size=4),
    z_frac=st.integers(0, 10),
    w_frac=st.integers(1, 10),
    omega=_GRID_FREQUENCY,
    delta=_GRID_FREQUENCY,
    jz=_GRID_FREQUENCY,
    field=_GRID_FREQUENCY,
    inner_on=st.booleans(),
    outer_on=st.booleans(),
)
def test_classify_stationary_iff_commutes(pops, z_frac, w_frac, omega, delta, jz, field, inner_on, outer_on):
    a, b, c, d = (x / sum(pops) for x in pops)
    if inner_on:
        b = c = (b + c) / 2.0
    w = w_frac / 10.0 * math.sqrt(a * d)
    if outer_on:
        field = (a - d) * delta / (2.0 * w)
    s = XState(a=a, b=b, c=c, d=d, z=z_frac / 10.0 * math.sqrt(b * c), w=w)
    p = CouplingParams(omega + delta, omega - delta, jz, field)
    h, rho = hamiltonian(p), xstate_matrix(s)
    commutes = max_abs(h @ rho - rho @ h) <= 1e-12
    assert (classify(s, p).kind == "stationary") == commutes


def test_classify_single_mode_periods_match_detect_period(rng):
    # one mode each: Bell-diagonal (eta), b = c off the family (eta), and
    # the outer block on the family with b != c (Omega)
    family_states, family_params = _commuting_from(rng.random((10, 9)))
    for k in range(30):
        if k % 3 == 0:
            s, p = random_bell_diagonal(rng), random_params(rng)
        elif k % 3 == 1:
            x = random_xstate(rng)
            mid = (x.b + x.c) / 2.0
            s, p = XState(a=x.a, b=mid, c=mid, d=x.d, z=x.z, w=x.w), random_params(rng)
        else:
            f = _state_at(family_states, k // 3)
            s = XState(a=f.a, b=f.b + 0.02, c=f.c - 0.02, d=f.d, z=0.0, w=f.w)
            p = _params_at(family_params, k // 3)
        verdict = classify(s, p)
        assert verdict.kind == "periodic" and verdict.mode_periods is None, (s, p, verdict)
        trace = scan(s, p, TimeGrid(t_max=6.0 * verdict.period, steps=6001))
        assert abs(detect_period(trace) - verdict.period) <= 1e-3 * verdict.period


ROADMAP_STATE = XState(0.4, 0.3, 0.2, 0.1, 0.1, 0.1)


def test_classify_two_incommensurate_modes_are_quasi_periodic():
    p = CouplingParams(1.3, 0.4, 0.5, 0.7)  # eta = 0.832, Omega = 0.85
    verdict = classify(ROADMAP_STATE, p)
    assert (verdict.kind, verdict.reason, verdict.period) == ("quasi_periodic", "generic", None)
    assert [round(x, 3) for x in verdict.mode_periods] == [3.775, 3.696]


def test_classify_commuting_family_state():
    s = XState(0.45, 0.2, 0.2, 0.15, z=0.1, w=0.3 * 0.45 / 1.4)  # (a - d) Delta = 2 B w
    verdict = classify(s, CouplingParams(1.3, 0.4, 0.5, 0.7))
    assert (verdict.kind, verdict.reason, verdict.period, verdict.mode_periods) == ("stationary", "commutes", None, None)


@pytest.mark.parametrize("ratio, q", [(1.0, 1), (2.0, 1), (1.5, 2), (17.0 / 12.0, 12), (18.0 / 13.0, None)])
def test_classify_commensurate_modes_are_periodic(ratio, q):
    # |Omega|/eta = ratio, as field 0.6 and Delta 0.8 make eta = 1; denominators beyond 12 count as none
    p = CouplingParams(ratio + 0.8, ratio - 0.8, 0.3, 0.6)
    verdict = classify(ROADMAP_STATE, p)
    assert verdict.kind == ("quasi_periodic" if q is None else "periodic")
    assert verdict.period == (None if q is None else q * _pi_over_eta(p))


@pytest.mark.parametrize(
    "p, kind, period",
    [
        (CouplingParams(0.9, 0.9, 0.3, 0.0), "periodic", lambda p: math.pi / 0.9),  # eta = 0: the Omega mode
        (CouplingParams(0.9, -0.9, 0.3, 0.5), "periodic", _pi_over_eta),  # Omega = 0: the eta mode
        (CouplingParams(0.0, 0.0, 0.3, 0.0), "stationary", lambda p: None),  # eta = Omega = 0
        (CouplingParams(1.3, 0.4, 0.3, 0.0), "periodic", lambda p: 9 * _pi_over_eta(p)),  # zero field: Omega/eta = 17/9
    ],
    ids=["eta_zero", "omega_zero", "eta_omega_zero", "zero_field"],
)
def test_classify_corners(p, kind, period):
    verdict = classify(ROADMAP_STATE, p)
    assert (verdict.kind, verdict.reason) == (kind, "commutes" if kind == "stationary" else "generic")
    assert verdict.period == period(p)


def test_classify_refuses_overflowing_frequencies():
    # Delta = (1e308 + 1e308) / 2 overflows to inf, and eta with it, on every route:
    # generic, Bell-diagonal and maximally mixed
    for state in (ROADMAP_STATE, preset_bell_diagonal(0.3, 0.2, 0.1), preset_bell_diagonal(0.0, 0.0, 0.0)):
        with pytest.raises(RangeError, match="frequencies overflow a float: eta = inf"):
            classify(state, CouplingParams(1e308, -1e308, 0.5, 0.7))


def test_periods_that_overflow_are_refused():
    # pi / eta and pi / |Omega| overflow a float for subnormal frequencies
    with pytest.raises(RangeError, match=r"the period 1 \* pi / 5e-324 overflows a float"):
        classify(ROADMAP_STATE, CouplingParams(1e-323, 0.0, 0.0, 0.0))
    with pytest.raises(RangeError, match=r"the period 1 \* pi / 1e-323 overflows a float"):
        classify(ROADMAP_STATE, CouplingParams(1e-323, 1e-323, 0.5, 0.7))


def test_nominal_period_is_pi_over_eta_up_to_the_largest_field():
    # 2 B overflows while eta = B is still finite; 2 w B does not, so w = 0 stays stationary
    p = CouplingParams(1.0, 1.0, 0.0, 1e308)
    assert classify(preset_bell_diagonal(0.3, 0.2, 0.1), p).period == math.pi / 1e308 > 0.0
    assert classify(preset_werner(0.5), p).reason == "maximally_mixed"
    assert classify(preset_werner(0.8), p).reason == "c1_equals_c2"


def test_detect_period_flat_trace_is_none():
    s = preset_werner(0.8)
    trace = scan(s, CouplingParams(1.0, 0.3, 0.5, 1.5), TimeGrid(t_max=10.0, steps=400))
    assert detect_period(trace) is None


def test_detect_period_frozen_two_pi():
    s = preset_p_mixture("phi_plus", 0.5)
    p = CouplingParams(1.0, 1.0, 0.5, 0.5)
    trace = scan(s, p, TimeGrid(t_max=6.0 * math.pi, steps=5000))
    T = detect_period(trace)
    assert abs(T - 2.0 * math.pi) / (2.0 * math.pi) < 1e-6


def test_detect_period_frozen_anisotropic():
    s = preset_p_mixture("phi_plus", 0.8)
    p = CouplingParams(2.0, 0.0, 0.0, 1.0)
    trace = scan(s, p, TimeGrid(t_max=3.0 * PI_OVER_SQRT2, steps=5000))
    T = detect_period(trace)
    assert abs(T - PI_OVER_SQRT2) / PI_OVER_SQRT2 < 1e-6


def test_detect_period_insufficient_span():
    s = preset_p_mixture("phi_plus", 0.5)
    p = CouplingParams(1.0, 1.0, 0.5, 0.5)  # period 2 pi
    trace = scan(s, p, TimeGrid(t_max=2.0, steps=200))
    with pytest.raises(InsufficientSpanError):
        detect_period(trace)
    tiny = scan(s, p, TimeGrid(t_max=1.0, steps=2))
    with pytest.raises(InsufficientSpanError, match="3 samples"):
        detect_period(tiny)


def _detect_period_loop(trace):
    """detect_period as a loop over samples: the reference for the array version."""
    f = np.asarray(trace.f_numeric, dtype=float)
    times = np.asarray(trace.times, dtype=float)
    if len(f) < 3:
        raise InsufficientSpanError("detect_period: need at least 3 samples")
    amplitude = float(np.max(1.0 - f))
    if amplitude < dynamics.STATIONARY_TOL:
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


def _period_outcome(detect, trace):
    """What a detect_period call gives: the bits of its value (or None) or its error,
    and whether numpy warned on the way."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        try:
            value = detect(trace)
            got = None if value is None else np.float64(value).view(np.int64)
        except InsufficientSpanError as exc:
            got = (type(exc), str(exc))
    return got, bool(caught)


def _trace_of(f, t_max=1.0) -> FidelityTrace:
    f = np.asarray(f, dtype=float)
    n = len(f)
    return FidelityTrace(
        times=np.linspace(0.0, t_max, n), f_numeric=f, f_closed=None, purity=np.ones(n), c1_minus_c2=np.zeros(n)
    )


# Sample values: a small set makes plateaus (equal neighbours) and minima
# exactly at the threshold 1 - amplitude/2 (0.5 when 0 is drawn, 0.75 when
# 0.5 is the lowest); free floats make ordinary parabolas; huge values and
# infinities make the only triples whose denom is not positive (NaN, from
# inf - inf; finite triples that pass the minimum test have denom > 0) and
# overflowing ones, which warn on both routes; NaN makes the amplitude NaN.
_SAMPLE = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.floats(-0.5, 1.5),
    st.sampled_from([1e308, -1e308, math.inf, -math.inf, math.nan]),
)


@settings(max_examples=300, deadline=None)
@given(
    f=st.lists(_SAMPLE, min_size=0, max_size=40),
    t_max=st.floats(1e-3, 1e3),
)
@example(f=[1.0, 0.0, 1.0], t_max=1.0)  # the 3-sample minimum
@example(f=[1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0], t_max=1.0)  # 0/0 off the minima
@example(f=[1.0, 0.5, 1.0, 0.5, 1.0], t_max=1.0)  # minima at the threshold
@example(f=[1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0], t_max=1.0)  # plateaus
@example(f=[1.0, -math.inf, -math.inf, 1.0, -math.inf, 0.0], t_max=1.0)  # denom NaN, then inf
@example(f=[1.0, -1e308, -1e308, 1.0, -1e308, 0.0], t_max=1.0)  # 2 f[i] overflows
@example(f=[1.0, 0.0, math.nan, 0.0, 1.0], t_max=1.0)  # no minimum passes
# Flat traces on either side of STATIONARY_TOL.  1 - f is exact for f near 1 and
# 1e-10 is no multiple of 2^-53, so no amplitude equals it: the two f here give
# the largest amplitude below it (None) and the smallest at or above it.
@example(f=[1.0, 0.9999999999000001, 1.0], t_max=1.0)
@example(f=[1.0, 0.9999999999, 1.0], t_max=1.0)
def test_detect_period_matches_the_loop_bit_for_bit(f, t_max):
    trace = _trace_of(f, t_max)
    assert _period_outcome(detect_period, trace) == _period_outcome(_detect_period_loop, trace)


def test_detect_period_matches_the_loop_on_scans(rng):
    # traces of the length classify and period measure, generic and Bell-diagonal
    for k in range(40):
        s = random_xstate(rng) if k % 2 else random_bell_diagonal(rng)
        trace = scan(s, random_params(rng), TimeGrid(t_max=float(rng.uniform(5.0, 40.0)), steps=3601))
        assert _period_outcome(detect_period, trace) == _period_outcome(_detect_period_loop, trace)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_evolution_group_property(seed):
    """Evolving t then t' equals evolving t + t'."""
    r = np.random.default_rng(seed)
    pops = r.random(4) + 1e-3
    pops = pops / pops.sum()
    s = XState(
        a=float(pops[0]),
        b=float(pops[1]),
        c=float(pops[2]),
        d=float(pops[3]),
        z=float(r.random()) * math.sqrt(pops[1] * pops[2]),
        w=float(r.random()) * math.sqrt(pops[0] * pops[3]),
    )
    p = CouplingParams(*(float(x) for x in r.uniform(-2.0, 2.0, 4)))
    t1, t2 = (float(x) for x in r.uniform(0.0, 4.0, 2))
    one_hop = evolve_oracle(s, p, t1 + t2).matrix
    u2 = expm(-1j * t2 * hamiltonian(p))
    two_hop = u2 @ evolve_oracle(s, p, t1).matrix @ u2.conj().T
    assert max_abs(one_hop - two_hop) < 1e-12
