"""Stacked (array) paths against the one-at-a-time calls they stand for.

`xdyn validate` evaluates each block of cases as stacks: couplings and
states with array fields, one stacked expm call, one stacked
DensityMatrix.  Each stacked path must give every element the bits the
single call gives it, so the loop version stays here as the reference and
the comparisons are exact.
"""
import math

import numpy as np
import pytest

from xdyn import (
    ConsistencyError,
    CouplingParams,
    DensityMatrix,
    InvalidInputError,
    NormalizationError,
    PositivityError,
    RangeError,
    XState,
    evolve_closed,
    evolve_oracle,
    expm,
    hamiltonian,
    propagator,
    to_bloch,
)
from xdyn import dynamics, model
from xdyn.fidelity import _block_min_eigenvalue, _x_min_eigenvalue
from xdyn.states import _x_matrix

from conftest import random_bell_diagonal, random_hermitian, random_params, random_xstate


def _stack_params(ps) -> CouplingParams:
    return CouplingParams(*(np.array([getattr(p, n) for p in ps]) for n in ("jx", "jy", "jz", "field")))


def _stack_states(ss) -> XState:
    return XState(*(np.array([getattr(s, n) for s in ss]) for n in "abcdzw"))


def _same(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b))


def test_stacked_expm_matches_single_calls_bit_for_bit(rng):
    # norms from 0 (no scaling, one term) through <= 0.5 (s = 0) to |H| t
    # about 1e3 (s near 12), so the stack mixes every scaling power and
    # term count and each mask has matrices on both of its sides
    scales = [0.0, 1e-3, 0.05, 0.2, 0.5, 1.0, 3.0, 20.0, 150.0, 1e3]
    stack = np.array([-1j * sc * random_hermitian(rng) for sc in scales for _ in range(6)])
    single = np.array([expm(m) for m in stack])
    assert np.array_equal(expm(stack), single)
    assert np.array_equal(expm(stack[:1]), single[:1])
    assert np.array_equal(expm(np.zeros((3, 4, 4))), np.broadcast_to(np.eye(4), (3, 4, 4)))
    norms = np.linalg.norm(stack, axis=(-2, -1))
    assert norms.min() == 0.0 and 0.0 < norms[6] <= 0.5 and norms.max() > 1e3


def test_stacked_expm_keeps_the_shape_of_its_input(rng):
    m = np.array([-1j * random_hermitian(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
    assert np.array_equal(expm(m), expm(m.reshape(6, 4, 4)).reshape(2, 3, 4, 4))
    with pytest.raises(InvalidInputError):
        expm(np.zeros((2, 3, 3)))


def test_block_draws_reproduce_per_call_stream():
    from xdyn.validate import _blocks, _uniform

    width, n = 5, 23
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    looped = [list(a.uniform(-2.0, 2.0, 4)) + [a.uniform(0.0, 10.0)] for _ in range(n)]
    blocks = list(_blocks(b, n, width, size=10))
    assert [len(k) for k, _ in blocks] == [10, 10, 3]
    u = np.concatenate([u for _, u in blocks])
    mapped = np.column_stack([_uniform(u[:, :4], -2.0, 2.0), _uniform(u[:, 4], 0.0, 10.0)])
    assert np.array_equal(mapped, np.array(looped))
    assert np.array_equal(np.concatenate([k for k, _ in blocks]), np.arange(n))
    assert a.random() == b.random()  # both streams end at the same place


def test_block_samplers_match_single_samplers(rng):
    from xdyn.validate import _bell_from, _params_from, _xstate_from

    seed = int(rng.integers(1 << 30))
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    single = [(random_xstate(a), random_params(a), random_bell_diagonal(a)) for _ in range(40)]
    u = b.random((40, 13))
    xs, ps, bs = _xstate_from(u[:, :6]), _params_from(u[:, 6:10]), _bell_from(u[:, 10:])
    for name in "abcdzw":
        assert _same(getattr(xs, name), [getattr(s, name) for s, _, _ in single])
        assert _same(getattr(bs, name), [getattr(s, name) for _, _, s in single])
    for name in ("jx", "jy", "jz", "field"):
        assert _same(getattr(ps, name), [getattr(p, name) for _, p, _ in single])


def test_hypot_on_arrays_is_math_hypot(rng):
    x = np.concatenate([rng.uniform(-3, 3, 4000), [0.0, 0.0, 5e-324, 1e-310, 1e300, 3.0]])
    y = np.concatenate([rng.uniform(-3, 3, 4000) * 10.0 ** rng.uniform(-12, 0, 4000), [0.0, 2.0, 5e-324, 3e-309, 1e300, -4.0]])
    expected = [math.hypot(a, b) for a, b in zip(x.tolist(), y.tolist())]
    assert _same(model._hypot(x, y), expected)
    assert np.count_nonzero(np.hypot(x, y) != expected) > 0  # numpy's own hypot would not do


def test_frequencies_and_norms_of_a_stack(rng):
    ps = [random_params(rng) for _ in range(60)]
    ps += [CouplingParams(1.0, 1.0, 0.5, 0.0), CouplingParams(0.3, -0.2, 0.0, -1.5)]
    stack = _stack_params(ps)
    for name in ("eta", "omega", "delta"):
        assert _same(getattr(stack, name), [getattr(p, name) for p in ps])
    keep = stack.delta != 0.0
    norms = model._outer_norms(stack.field[keep], stack.eta[keep], stack.delta[keep])
    single = [model.spectrum(p).norms for p, k in zip(ps, keep) if k]
    assert _same(np.transpose(norms), single)
    assert _same(hamiltonian(stack), [hamiltonian(p) for p in ps])


def test_stacked_propagator_matches_single_calls(rng):
    ps = [random_params(rng) for _ in range(40)]
    ts = rng.uniform(-10.0, 10.0, 40)
    for phase in (False, True):
        u = propagator(_stack_params(ps), ts, include_global_phase=phase)
        single = [propagator(p, float(t), include_global_phase=phase) for p, t in zip(ps, ts)]
        assert _same(u.matrix, [x.matrix for x in single])
        assert _same(u.mu_plus, [x.mu_plus for x in single])
        assert _same(u.delta_entry, [x.delta_entry for x in single])


def test_broadcast_evolve_x_matches_scalar_calls(rng):
    ss = [random_xstate(rng) for _ in range(12)]
    ps = [random_params(rng) for _ in range(12)]
    s, p = _stack_states(ss), _stack_params(ps)
    times = rng.uniform(0.0, 10.0, (12, 9))
    col = XState(*(getattr(s, n)[:, None] for n in "abcdzw"))
    pcol = CouplingParams(*(getattr(p, n)[:, None] for n in ("jx", "jy", "jz", "field")))
    grid = dynamics._evolve_x(col, pcol, times)
    per_time = dynamics._evolve_x(s, p, times[:, 3])
    for i in range(12):
        for j in range(9):
            assert [x[i, j] for x in grid] == list(dynamics._evolve_x(ss[i], ps[i], float(times[i, j])))
        assert [x[i] for x in per_time] == [x[i, 3] for x in grid]


def test_stacked_evolution_routes_match_single_calls(rng):
    ss = [random_xstate(rng) for _ in range(15)]
    ps = [random_params(rng) for _ in range(15)]
    ts = rng.uniform(0.0, 10.0, 15)
    s, p = _stack_states(ss), _stack_params(ps)
    for route in (evolve_closed, evolve_oracle):
        stacked = route(s, p, ts).matrix
        assert _same(stacked, [route(a, b, float(t)).matrix for a, b, t in zip(ss, ps, ts)])
    v = to_bloch(s)
    assert _same(v.c1, [to_bloch(a).c1 for a in ss])


def test_stack_construction_checks_name_the_failing_element():
    good = np.array([0.25, 0.25, 0.25])
    with pytest.raises(InvalidInputError, match=r"CouplingParams.jz\[1\] must be finite"):
        CouplingParams(good, good, np.array([0.0, math.inf, 0.0]), good)
    with pytest.raises(InvalidInputError, match=r"XState.b\[2\] must be finite"):
        XState(good, np.array([0.25, 0.25, math.nan]), good, good, good * 0, good * 0)
    with pytest.raises(NormalizationError, match=r"populations\[1\] must sum to 1"):
        XState(good, np.array([0.25, 0.3, 0.25]), good, good, good * 0, good * 0)
    with pytest.raises(PositivityError, match=r"outer block\[2\] not positive"):
        XState(good, good, good, good, good * 0, np.array([0.0, 0.1, 0.3]))
    with pytest.raises(PositivityError, match=r"XState\[0\] stores coherence magnitudes"):
        XState(good, good, good, good, np.array([-0.1, 0.0, 0.0]), good * 0)


def test_stacked_phase_check_names_the_overflowing_element():
    p = CouplingParams(np.array([1.0, 1e10]), np.array([0.0, 0.0]), np.array([0.0, 0.0]), np.array([0.0, 0.0]))
    s = XState(*(np.array([v, v]) for v in (0.25, 0.25, 0.25, 0.25, 0.0, 0.0)))
    with pytest.raises(RangeError, match=r"t = 1e\+300 overflows a phase at stack index \[1\]"):
        evolve_closed(s, p, np.array([1e300, 1e300]))
    with pytest.raises(RangeError, match=r"stack index \[1\]"):
        evolve_oracle(s, p, np.array([1.0, 1e300]))


def test_stacked_frequency_overflow_names_its_first_bad_element_on_every_route():
    # the overflow is refused where the frequencies are first read, by whichever route
    # reads them, and again on the next read: a refusal is never cached as a value
    big = np.array([1.0, 1.0, 1e308, 1e308])
    zeros = np.zeros(4)
    s = XState(*(np.full(4, v) for v in (0.25, 0.25, 0.25, 0.25, 0.0, 0.0)))
    t = np.ones(4)
    p = CouplingParams(big, -big, zeros, zeros + 1.0)
    routes = (
        lambda: p.omega,
        lambda: propagator(p, t),
        lambda: evolve_closed(s, p, t),
        lambda: evolve_oracle(s, p, t),
        lambda: dynamics._mode_amplitudes(s, p),
        lambda: p.eta,
    )
    for route in routes:
        with pytest.raises(RangeError, match=r"^frequencies overflow a float\[2\]: eta = inf, omega = 0.0$"):
            route()


def _x_stack(n: int) -> np.ndarray:
    return np.broadcast_to(np.eye(4, dtype=complex) / 4.0, (n, 4, 4)).copy()


def test_stacked_density_matrix_checks_every_element():
    DensityMatrix(_x_stack(5))
    bad_trace = _x_stack(5)
    bad_trace[3, 2, 2] += 1e-9
    with pytest.raises(ConsistencyError, match=r"DensityMatrix\[3\]: trace must be 1"):
        DensityMatrix(bad_trace)
    bad_herm = _x_stack(5)
    bad_herm[4, 1, 2] = 1e-9
    with pytest.raises(ConsistencyError, match=r"DensityMatrix\[4\]: matrix is not Hermitian"):
        DensityMatrix(bad_herm)


def test_stacked_density_matrix_block_floor():
    # X-shaped: the outer block of element 2 has eigenvalues 0.5 + eps, -eps
    m = _x_stack(4)
    m[:, 0, 3] = m[:, 3, 0] = 0.25 + np.array([0.0, 1e-11, 1e-9, 0.0])
    with pytest.raises(ConsistencyError, match=r"DensityMatrix\[2\]: min eigenvalue .* below"):
        DensityMatrix(m)
    m[2, 0, 3] = m[2, 3, 0] = 0.25
    DensityMatrix(m)


def test_stacked_density_matrix_refuses_non_x_elements():
    # |+><+| (x) |0><0| is physical but not X-shaped; the first such element is named
    plus = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)
    m = _x_stack(4)
    m[2] = np.outer(plus, plus)
    with pytest.raises(InvalidInputError, match=r"^DensityMatrix\[2\]: not X-shaped"):
        DensityMatrix(m)
    m[1, 0, 3] = m[1, 3, 0] = 0.26  # unphysical, but the shape is checked first
    m[3, 2, 3] = 1e-300
    with pytest.raises(InvalidInputError, match=r"^DensityMatrix\[2\]: not X-shaped"):
        DensityMatrix(m)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def test_block_rule_reads_the_same_bits_alone_and_in_a_stack():
    # 24k blocks [[x, g], [g*, y]]: one in four exactly on the boundary
    # |g|^2 = x y, one in eight diagonal, one in sixteen with x = 0 and one
    # in sixteen with mean <= 0; phases make g complex except on every
    # third block.  A float reads |g| and r with abs of a Python complex
    # (libm hypot), an array with np.hypot; numpy's complex absolute, the
    # array's own abs, misses libm's last bit on about a quarter of them.
    r = np.random.default_rng(1708)
    n = 24_000
    x, y = r.random(n), r.random(n) * 10.0 ** r.uniform(-3.0, 0.0, n)
    mag = np.sqrt(x * y) * r.uniform(0.0, 1.0, n)
    mag[::4] = np.sqrt(x[::4] * y[::4])
    mag[1::8] = 0.0
    x[2::16] = 0.0
    x[3::16], y[3::16] = -x[3::16], -y[3::16]
    g = mag * np.exp(1j * r.uniform(0.0, 2.0 * math.pi, n))
    g[::3] = mag[::3]
    xs, ys = x.tolist(), y.tolist()
    for coherence in (g, mag):
        stacked = _block_min_eigenvalue(x, y, coherence)
        single = [_block_min_eigenvalue(a, b, c) for a, b, c in zip(xs, ys, coherence.tolist())]
        assert _same(_bits(stacked), _bits(single))
    # the same blocks inside X-shaped matrices: a stacked DensityMatrix reads
    # each as a single one does
    m = _x_matrix(x, np.roll(x, 1), np.roll(y, 1), y, np.roll(g, 1), g)
    single = [_x_min_eigenvalue(one) for one in m]
    assert _same(_bits(_x_min_eigenvalue(m)), _bits(single))
