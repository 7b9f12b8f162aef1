"""Density matrix validation, overlap fidelity, and the printed aggregate forms `xdyn validate` judges."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdyn import (
    ConsistencyError,
    CouplingParams,
    DensityMatrix,
    DomainError,
    InvalidInputError,
    evolve_closed,
    evolve_oracle,
    expm,
    fidelity,
    fidelity_bell_diagonal,
    hamiltonian,
    preset_bell_diagonal,
    preset_p_mixture,
    purity,
    sinc,
    to_bloch,
    to_density,
    trace_product,
    xstate_matrix,
)
from xdyn.fidelity import _x_min_eigenvalue
from xdyn.states import BlochVector
from xdyn.validate import _bloch_aggregate, _population_aggregate, _xstate_from

from conftest import random_bell_diagonal, random_params, random_xstate

OFF_X = [(i, j) for i in range(4) for j in range(4) if i != j and i + j != 3]


def test_density_matrix_accepts_mixed_state():
    r = DensityMatrix(np.eye(4) / 4.0)
    assert purity(r) == 0.25


def test_density_matrix_rejects_non_hermitian():
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 3] = 1e-3
    with pytest.raises(ConsistencyError, match="Hermitian"):
        DensityMatrix(m)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ConsistencyError, match="trace"):
        DensityMatrix(np.eye(4, dtype=complex) / 2.0)


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.diag([1.01, -0.01, 0.0, 0.0]).astype(complex)
    with pytest.raises(ConsistencyError, match="eigenvalue"):
        DensityMatrix(m)


def test_density_matrix_tolerates_floor_level_negativity():
    m = np.diag([1.0 + 1e-11, -1e-11, 0.0, 0.0]).astype(complex)
    assert DensityMatrix(m).matrix[1, 1].real == -1e-11


def _random_x_matrix(rng) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    for p, q in ((0, 3), (1, 2)):
        m[p, p], m[q, q] = rng.normal(size=2)
        m[p, q] = complex(*rng.normal(size=2))
        m[q, p] = m[p, q].conjugate()
    return m


def test_x_block_minimum_matches_eigvalsh(rng):
    matrices = [_random_x_matrix(rng) for _ in range(100)]
    for _ in range(50):
        s, p, t = random_xstate(rng), random_params(rng), float(rng.uniform(0.0, 10.0))
        matrices += [evolve_oracle(s, p, t).matrix, evolve_closed(s, p, t).matrix]
    for m in matrices:
        assert abs(_x_min_eigenvalue(m) - np.linalg.eigvalsh(m)[0]) < 1e-12


def test_evolved_states_are_exactly_x_shaped(rng):
    # DensityMatrix refuses a matrix with any nonzero entry off the X, so
    # every evolved state must keep all eight exactly 0
    for _ in range(50):
        s, p, t = random_xstate(rng), random_params(rng), float(rng.uniform(0.0, 10.0))
        for m in (
            expm(-1j * t * hamiltonian(p)),
            evolve_oracle(s, p, t).matrix,
            evolve_closed(s, p, t).matrix,
        ):
            assert all(m[i, j] == 0.0 for i, j in OFF_X)
    # and so must the referee's expm(-iHt) and U rho0 U^dagger over the whole
    # domain: |J| and |B| log-uniform over 1e-6..1e6 of either sign, one draw
    # in four with Jx = Jy and one in four at zero field, and |H| t up to 1e9
    n = 8192
    jx, jy, jz, b = rng.choice([-1.0, 1.0], (4, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (4, n))
    jy[::4] = jx[::4]
    b[1::4] = 0.0
    p = CouplingParams(jx=jx, jy=jy, jz=jz, field=b)
    h = hamiltonian(p)
    t = 10.0 ** rng.uniform(-6.0, 9.0, n) / np.linalg.norm(h, axis=(-2, -1))
    u = expm(-1j * t[:, None, None] * h)
    rho = u @ xstate_matrix(_xstate_from(rng.random((n, 6)))) @ u.conj().swapaxes(-1, -2)
    for m in (u, rho):
        assert all(np.count_nonzero(m[:, i, j]) == 0 for i, j in OFF_X)


def test_density_matrix_holds_x_matrix_as_given(rng):
    # an X state is judged by the block rule alone and held as given
    m = xstate_matrix(random_xstate(rng))
    assert np.array_equal(DensityMatrix(m).matrix, m)


def _outer_block_state(eps: float) -> np.ndarray:
    # outer block eigenvalues 0.5 + eps and -eps, carried by a complex coherence
    m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    m[0, 3] = (0.25 + eps) * np.exp(0.7j)
    m[3, 0] = m[0, 3].conjugate()
    return m


def test_density_matrix_x_route_floor():
    DensityMatrix(_outer_block_state(1e-11))
    with pytest.raises(ConsistencyError, match="min eigenvalue"):
        DensityMatrix(_outer_block_state(1e-9))


def _plus_zero_projectors():
    plus = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)  # |+>|0>
    minus = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)  # |->|0>
    return np.outer(plus, plus).astype(complex), np.outer(minus, minus).astype(complex)


def test_density_matrix_refuses_non_x_state():
    # |+><+| (x) |0><0| is physical but not X-shaped
    plus, _ = _plus_zero_projectors()
    with pytest.raises(InvalidInputError, match="^DensityMatrix: not X-shaped"):
        DensityMatrix(plus)
    for i, j in OFF_X:
        m = np.eye(4, dtype=complex) / 4.0
        m[i, j] = 5e-324
        with pytest.raises(InvalidInputError, match="not X-shaped"):
            DensityMatrix(m)


def test_density_matrix_refuses_non_x_before_its_other_checks():
    # unphysical and non-Hermitian as well: the shape is named first
    plus, minus = _plus_zero_projectors()
    with pytest.raises(InvalidInputError, match="not X-shaped"):
        DensityMatrix(1.001 * plus - 0.001 * minus)
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = 1e-3
    with pytest.raises(InvalidInputError, match="not X-shaped"):
        DensityMatrix(m)


def test_fidelity_frozen_values():
    mixed = DensityMatrix(np.eye(4) / 4.0)
    phi_plus = to_density(preset_bell_diagonal(1.0, -1.0, 1.0))
    assert abs(fidelity(mixed, phi_plus) - 0.5) < 1e-15
    assert fidelity(phi_plus, phi_plus) == 1.0

    # the canonical XState cannot hold a negative coherence, so build the
    # orthogonal partner (outer coherence -1/2) directly
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    m[0, 3] = m[3, 0] = -0.5
    phi_minus = DensityMatrix(m)
    assert fidelity(phi_plus, phi_minus) == 0.0


def test_fidelity_symmetric_and_bounded(rng):
    for _ in range(100):
        r = to_density(random_xstate(rng))
        s = to_density(random_xstate(rng))
        f_rs = fidelity(r, s)
        assert f_rs == fidelity(s, r)
        assert 0.0 <= f_rs <= 1.0
        assert fidelity(r, r) == 1.0


def test_bell_diagonal_closed_form_frozen():
    s = preset_p_mixture("phi_plus", 0.7)
    v = to_bloch(s)
    p = CouplingParams(jx=1.0, jy=1.0, jz=0.5, field=1.0)
    assert abs(fidelity_bell_diagonal(v, p, math.pi / 2.0) - 0.20647773279352233) < 1e-15
    assert abs(fidelity_bell_diagonal(v, p, 0.8) - 0.5916536308278287) < 1e-15
    assert fidelity_bell_diagonal(v, p, 0.0) == 1.0


def test_bell_diagonal_closed_form_zero_field():
    s = preset_bell_diagonal(0.5, -0.3, 0.2)
    v = to_bloch(s)
    p = CouplingParams(jx=1.7, jy=0.2, jz=0.9, field=0.0)
    for t in (0.0, 0.7, 3.1):
        assert fidelity_bell_diagonal(v, p, t) == 1.0


def test_bell_diagonal_closed_form_matches_numeric(rng):
    worst = 0.0
    for _ in range(100):
        s = random_bell_diagonal(rng)
        p = random_params(rng)
        t = float(rng.uniform(0.0, 8.0))
        f_closed = fidelity_bell_diagonal(to_bloch(s), p, t)
        f_num = fidelity(to_density(s), evolve_closed(s, p, t))
        worst = max(worst, abs(f_closed - f_num))
    assert worst < 1e-12


def test_bell_diagonal_form_rejects_polarized_states():
    v = BlochVector(s1=0.2, s2=0.0, c1=0.1, c2=0.1, c3=0.1)
    with pytest.raises(DomainError):
        fidelity_bell_diagonal(v, CouplingParams(jx=1, jy=0, jz=0, field=1), 1.0)


def _oracle_overlap(s, p, t):
    return trace_product(xstate_matrix(s), evolve_oracle(s, p, t).matrix).real


def _corrected_population(s, p, t):
    # the printed population aggregate plus its missing term 4 w (a - d) B Delta sin^2(eta t) / eta^2
    s2e = (t * sinc(p.eta * t)) ** 2
    return _population_aggregate(s, p, t) + 4.0 * s.w * (s.a - s.d) * p.field * p.delta * s2e


def _corrected_bloch(v, p, t):
    # the printed Bloch aggregate plus its missing (c1 - c2)(s1 + s2) B Delta sin^2(eta t) / (2 eta^2)
    s2e = (t * sinc(p.eta * t)) ** 2
    return _bloch_aggregate(v, p, t) + (v.c1 - v.c2) * (v.s1 + v.s2) * p.field * p.delta * s2e / 2.0


def test_overlap_forms_agree_on_bell_diagonal(rng):
    for _ in range(50):
        s = random_bell_diagonal(rng)
        p = random_params(rng)
        t = float(rng.uniform(0.0, 8.0))
        ref = _oracle_overlap(s, p, t)
        assert abs(_population_aggregate(s, p, t) - ref) < 1e-12
        assert abs(_bloch_aggregate(to_bloch(s), p, t) - ref) < 1e-12


def test_printed_overlap_misses_cross_term():
    # polarized state with outer coherence: the quoted aggregates drift
    s_state = {"a": 0.4, "b": 0.1, "c": 0.2, "d": 0.3, "z": 0.1, "w": 0.3}
    from xdyn import XState

    s = XState(**s_state)
    p = CouplingParams(jx=1.5, jy=0.3, jz=0.7, field=0.9)
    t = 1.1
    ref = _oracle_overlap(s, p, t)
    assert abs(_population_aggregate(s, p, t) - ref) > 1e-3
    assert abs(_bloch_aggregate(to_bloch(s), p, t) - ref) > 1e-3
    assert abs(_corrected_population(s, p, t) - ref) < 1e-13
    assert abs(_corrected_bloch(to_bloch(s), p, t) - ref) < 1e-13


def test_corrected_overlap_matches_oracle(rng):
    worst = 0.0
    for _ in range(80):
        s = random_xstate(rng)
        p = random_params(rng)
        t = float(rng.uniform(0.0, 8.0))
        ref = _oracle_overlap(s, p, t)
        worst = max(worst, abs(_corrected_population(s, p, t) - ref))
        worst = max(worst, abs(_corrected_bloch(to_bloch(s), p, t) - ref))
    assert worst < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_population_and_bloch_aggregates_are_the_same_function(seed):
    """The two variable sets express one polynomial; both variants match."""
    r = np.random.default_rng(seed)
    pops = r.random(4) + 1e-3
    pops = pops / pops.sum()
    from xdyn import XState

    s = XState(
        a=float(pops[0]),
        b=float(pops[1]),
        c=float(pops[2]),
        d=float(pops[3]),
        z=float(r.random()) * math.sqrt(pops[1] * pops[2]),
        w=float(r.random()) * math.sqrt(pops[0] * pops[3]),
    )
    p = CouplingParams(*(float(x) for x in r.uniform(-2.0, 2.0, 4)))
    t = float(r.uniform(0.0, 8.0))
    v = to_bloch(s)
    for lhs, rhs in (
        (_population_aggregate(s, p, t), _bloch_aggregate(v, p, t)),
        (_corrected_population(s, p, t), _corrected_bloch(v, p, t)),
    ):
        assert abs(lhs - rhs) < 1e-13
