"""Closed-form evolution against the expm oracle, scans, classification,
and period detection."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdyn import (
    BlochVector,
    ConsistencyError,
    CouplingParams,
    DomainError,
    InsufficientSpanError,
    InvalidInputError,
    RangeError,
    TimeGrid,
    XState,
    bloch_from_density,
    c_difference,
    c_difference_cos2,
    c_difference_predicted,
    classify,
    detect_period,
    evolve_closed,
    evolve_oracle,
    expm,
    fidelity,
    fidelity_bell_diagonal,
    hamiltonian,
    nominal_period,
    overlap_evolved,
    overlap_population_form,
    preset_p_mixture,
    preset_werner,
    purity,
    scan,
    to_bloch,
    to_density,
)
from xdyn import dynamics
from xdyn.dynamics import FidelityTrace
from xdyn.linalg import max_abs

from conftest import random_bell_diagonal, random_params, random_xstate

PI_OVER_SQRT2 = 2.2214414690791831


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
        with pytest.raises(InvalidInputError, match="overlap_evolved: t must be finite"):
            overlap_evolved(s, p, t)
        with pytest.raises(InvalidInputError, match="c_difference: t must be finite"):
            c_difference(v, p, t)
        with pytest.raises(InvalidInputError, match="c_difference_predicted: t must be finite"):
            c_difference_predicted(v, p, t)
        for times in (t, np.array([0.0, t])):
            with pytest.raises(InvalidInputError, match="fidelity_bell_diagonal: t must be finite"):
                fidelity_bell_diagonal(v, p, times)


def test_overlap_evolved_routes(rng):
    for _ in range(50):
        s = random_xstate(rng)
        p = random_params(rng)
        t = float(rng.uniform(0.0, 8.0))
        direct = overlap_evolved(s, p, t)
        via_form = overlap_population_form(s, p, t, corrected=True)
        assert abs(direct - via_form) < 1e-12


def test_time_grid_validation():
    with pytest.raises(RangeError):
        TimeGrid(t_max=0.0, steps=100)
    with pytest.raises(RangeError):
        TimeGrid(t_max=1.0, steps=1)
    with pytest.raises(RangeError):
        TimeGrid(t_max=1.0, steps=True)
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
    predicted = np.array(
        [c_difference_predicted(v, p, float(t)) for t in trace.times]
    )
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
    core = dynamics._evolve_x

    def faulty(s, p, t):  # the array kernel's output with sample k replaced
        xt = tuple(np.array(x) for x in core(s, p, t))
        for x, value in zip(xt, bad):
            x[k] = value
        return xt

    monkeypatch.setattr(dynamics, "_evolve_x", faulty)
    with pytest.raises(ConsistencyError, match=rf"at sample {k} \(t={t_bad}\)") as exc:
        scan(preset_p_mixture("phi_plus", mix), CouplingParams(1.0, 0.4, 0.3, 0.8), grid)
    assert fault in str(exc.value)


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
    worst = 0.0
    for _ in range(60):
        s = random_bell_diagonal(rng)
        v = to_bloch(s)
        p = random_params(rng)
        t = float(rng.uniform(0.0, 8.0))
        got = c_difference(v, p, t)
        ref = bloch_from_density(evolve_oracle(s, p, t).matrix)
        assert abs(got - (ref.c1 - ref.c2)) < 1e-12
        worst = max(worst, abs(got - c_difference_predicted(v, p, t)))
    assert worst < 1e-12


def test_c_difference_restores_sign():
    v = BlochVector(s1=0.0, s2=0.0, c1=-0.7, c2=0.7, c3=0.7)
    p = CouplingParams(jx=1.0, jy=1.0, jz=0.5, field=1.0)
    assert abs(c_difference(v, p, 0.0) + 1.4) < 1e-14
    for t in (0.3, 1.1, 2.9):
        assert abs(c_difference(v, p, t) - c_difference_predicted(v, p, t)) < 1e-13


def test_c_difference_crosses_plane_when_field_dominates():
    # B^2 > Delta^2: the factor 1 - 2 B^2 sin^2/eta^2 turns negative
    v = BlochVector(s1=0.0, s2=0.0, c1=0.7, c2=-0.7, c3=0.7)
    p = CouplingParams(jx=1.0, jy=1.0, jz=0.5, field=1.0)
    assert c_difference(v, p, math.pi / 2.0) < -1.39
    # the quoted cos^2 law cannot go negative and misses this entirely
    assert c_difference_cos2(v, p, math.pi / 2.0) == pytest.approx(0.0, abs=1e-15)


def test_c_difference_no_crossing_when_anisotropy_dominates():
    v = BlochVector(s1=0.0, s2=0.0, c1=0.7, c2=-0.7, c3=0.7)
    p = CouplingParams(jx=2.3, jy=0.3, jz=0.5, field=0.3)  # delta = 1, B = 0.3
    lows = [c_difference(v, p, t) for t in np.linspace(0.0, 12.0, 241)]
    assert min(lows) > 0.0


def test_c_difference_rejects_polarized():
    v = BlochVector(s1=0.1, s2=0.0, c1=0.2, c2=0.1, c3=0.0)
    p = CouplingParams(jx=1.0, jy=0.0, jz=0.0, field=1.0)
    for fn in (c_difference, c_difference_predicted, c_difference_cos2):
        with pytest.raises(DomainError):
            fn(v, p, 1.0)


def test_nominal_period_frozen():
    assert abs(nominal_period(CouplingParams(1.0, 1.0, 0.3, 0.5)) - 2.0 * math.pi) < 1e-15
    assert abs(nominal_period(CouplingParams(2.0, 0.0, 0.0, 1.0)) - PI_OVER_SQRT2) < 1e-15
    assert nominal_period(CouplingParams(1.0, 1.0, 0.9, 0.0)) is None


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


def test_classify_non_bell_stationary_empirically():
    # polarized but commuting: diagonal outer block, inner aligned with
    # the exchange term, jx = jy so the outer coupling vanishes
    s = XState(a=0.4, b=0.2, c=0.2, d=0.2, z=0.1, w=0.0)
    assert abs(to_bloch(s).s1) > 0.1  # genuinely outside the Bell family
    verdict = classify(s, CouplingParams(1.0, 1.0, 0.4, 0.9))
    assert (verdict.kind, verdict.reason) == ("stationary", "generic")
    assert verdict.period is None


def test_classify_non_bell_periodic():
    s = XState(a=0.4, b=0.25, c=0.15, d=0.2, z=0.1, w=0.15)
    verdict = classify(s, CouplingParams(1.3, 0.5, 0.2, 0.9))
    assert verdict.kind == "periodic"
    assert verdict.period is not None and verdict.period > 0.0


def test_classify_free_hamiltonian_everything_stationary():
    s = XState(a=0.4, b=0.25, c=0.15, d=0.2, z=0.1, w=0.15)
    verdict = classify(s, CouplingParams(0.0, 0.0, 0.4, 0.0))
    assert (verdict.kind, verdict.reason) == ("stationary", "generic")


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


def test_detect_period_tol_override():
    s = preset_p_mixture("phi_plus", 0.5)
    p = CouplingParams(1.0, 1.0, 0.5, 0.5)
    trace = scan(s, p, TimeGrid(t_max=6.0 * math.pi, steps=500))
    assert detect_period(trace, tol=2.0) is None


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
