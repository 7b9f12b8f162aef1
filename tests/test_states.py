"""State construction, gauge fixing, Bloch maps, presets, state files."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdyn import (
    BlochVector,
    ConsistencyError,
    DensityMatrix,
    InvalidInputError,
    NormalizationError,
    PositivityError,
    RangeError,
    StateFileError,
    XState,
    bloch_from_density,
    eigvals_hermitian,
    from_bloch,
    gauge_fix,
    local_rotation,
    preset_bell_diagonal,
    preset_p_mixture,
    preset_werner,
    state_from_json,
    to_bloch,
    to_density,
    xstate_matrix,
)
from xdyn.linalg import ID4, max_abs

from conftest import random_xstate


def test_maximally_mixed():
    s = XState(a=0.25, b=0.25, c=0.25, d=0.25, z=0.0, w=0.0)
    assert s.purity == 0.25
    assert max_abs(xstate_matrix(s) - ID4 / 4.0) == 0.0


def test_xstate_rejects_bad_trace():
    with pytest.raises(NormalizationError):
        XState(a=0.3, b=0.3, c=0.3, d=0.3, z=0.0, w=0.0)


def test_xstate_rejects_negative_coherence():
    with pytest.raises(PositivityError, match="gauge_fix"):
        XState(a=0.25, b=0.25, c=0.25, d=0.25, z=-0.1, w=0.0)


def test_xstate_rejects_excess_coherence():
    with pytest.raises(PositivityError, match="inner"):
        XState(a=0.25, b=0.25, c=0.25, d=0.25, z=0.3, w=0.0)
    with pytest.raises(PositivityError, match="outer"):
        XState(a=0.25, b=0.25, c=0.25, d=0.25, z=0.0, w=0.3)


def test_xstate_rejects_non_finite_and_non_real():
    with pytest.raises(InvalidInputError):
        XState(a=math.nan, b=0.25, c=0.25, d=0.25, z=0.0, w=0.0)
    with pytest.raises(InvalidInputError):
        XState(a=True, b=0.25, c=0.25, d=0.25, z=0.0, w=0.0)


def test_xstate_tolerates_tiny_negatives():
    # a population at -1e-11 sits above the eigenvalue floor
    s = XState(a=-1e-11, b=0.5, c=0.25, d=0.25 + 1e-11, z=0.0, w=0.0)
    assert s.a == -1e-11


def test_bloch_vector_range():
    with pytest.raises(RangeError):
        BlochVector(s1=0.0, s2=0.0, c1=1.1, c2=0.0, c3=0.0)
    v = BlochVector(s1=0.0, s2=0.0, c1=0.7, c2=-0.7, c3=0.7)
    assert abs(v.purity - 0.6175) < 1e-15


def test_phi_plus_mixture_frozen():
    s = preset_p_mixture("phi_plus", 0.7)
    assert (s.a, s.d) == (0.425, 0.425)
    assert abs(s.b - 0.075) < 1e-16 and abs(s.c - 0.075) < 1e-16
    assert (s.z, s.w) == (0.0, 0.35)
    v = to_bloch(s)
    assert abs(v.c1 - 0.7) < 1e-15
    assert abs(v.c2 + 0.7) < 1e-15
    assert abs(v.c3 - 0.7) < 1e-15
    assert abs(v.s1) < 1e-15 and abs(v.s2) < 1e-15
    assert abs(s.purity - 0.6175) < 1e-15


def test_psi_plus_mixture_frozen():
    s = preset_p_mixture("psi_plus", 0.6)
    assert (s.a, s.b, s.c, s.d) == (0.1, 0.4, 0.4, 0.1)
    assert (s.z, s.w) == (0.3, 0.0)
    v = to_bloch(s)
    assert abs(v.c1 - 0.6) < 1e-15
    assert abs(v.c2 - 0.6) < 1e-15
    assert abs(v.c3 + 0.6) < 1e-15


def test_minus_kinds_share_canonical_state():
    assert preset_p_mixture("psi_minus", 0.6) == preset_p_mixture("psi_plus", 0.6)
    assert preset_p_mixture("phi_minus", 0.4) == preset_p_mixture("phi_plus", 0.4)


def test_p_mixture_rejects_bad_input():
    with pytest.raises(RangeError):
        preset_p_mixture("sigma_plus", 0.5)
    with pytest.raises(RangeError):
        preset_p_mixture("phi_plus", 1.2)
    with pytest.raises(RangeError):
        preset_p_mixture("phi_plus", -0.1)


def test_werner_frozen():
    s = preset_werner(1.0)
    third, sixth = 1.0 / 3.0, 1.0 / 6.0
    assert abs(s.a - third) < 1e-16 and abs(s.d - third) < 1e-16
    assert abs(s.b - sixth) < 1e-16 and abs(s.c - sixth) < 1e-16
    assert abs(s.z - sixth) < 1e-16 and s.w == 0.0
    v = to_bloch(s)
    for coeff in (v.c1, v.c2, v.c3):
        assert abs(coeff - third) < 1e-15

    assert preset_werner(0.5) == XState(a=0.25, b=0.25, c=0.25, d=0.25, z=0.0, w=0.0)

    # x = -1 is the singlet; the stored canonical partner is the triplet
    # projector (coherence sign folded away), purity 1 either way
    s = preset_werner(-1.0)
    assert (s.a, s.d, s.w) == (0.0, 0.0, 0.0)
    assert (s.b, s.c, s.z) == (0.5, 0.5, 0.5)
    assert abs(s.purity - 1.0) < 1e-15


def test_werner_range():
    with pytest.raises(RangeError):
        preset_werner(1.0001)
    with pytest.raises(RangeError):
        preset_werner(-1.0001)


def test_bell_diagonal_frozen():
    s = preset_bell_diagonal(1.0, -1.0, 1.0)
    assert (s.a, s.b, s.c, s.d, s.z, s.w) == (0.5, 0.0, 0.0, 0.5, 0.0, 0.5)
    with pytest.raises(PositivityError):
        preset_bell_diagonal(0.9, 0.9, 0.9)
    with pytest.raises(PositivityError):
        preset_bell_diagonal(1.0, 1.0, 1.0)


def test_bloch_round_trip(rng):
    for _ in range(200):
        s = random_xstate(rng)
        r = from_bloch(to_bloch(s))
        for name in ("a", "b", "c", "d", "z", "w"):
            assert abs(getattr(s, name) - getattr(r, name)) < 1e-15


def test_from_bloch_canonicalizes_signs():
    v = BlochVector(s1=0.0, s2=0.0, c1=-0.7, c2=0.7, c3=0.7)
    s = from_bloch(v)
    assert s.w == 0.35 and s.z == 0.0
    assert s == preset_p_mixture("phi_plus", 0.7)


def test_purity_routes_agree(rng):
    for _ in range(100):
        s = random_xstate(rng)
        m = xstate_matrix(s)
        assert abs(s.purity - np.trace(m @ m).real) < 1e-14
        assert abs(s.purity - to_bloch(s).purity) < 1e-14


def test_to_density_matches_matrix(rng):
    s = random_xstate(rng)
    assert max_abs(to_density(s).matrix - xstate_matrix(s)) == 0.0
    # a DensityMatrix is read without coercion, to the same coefficients
    assert bloch_from_density(to_density(s)) == bloch_from_density(xstate_matrix(s))


def test_bloch_from_density_on_non_x_matrix():
    # the trace definition needs no X structure
    m = np.full((4, 4), 0.25, dtype=complex)  # projector onto (1,1,1,1)/2
    v = bloch_from_density(m)
    assert abs(v.c1 - 1.0) < 1e-15
    assert abs(v.s1) < 1e-15


def test_gauge_fix_frozen():
    g = gauge_fix(-0.25, 0.25 * cmath.exp(1j * math.pi / 3.0))
    assert abs(g.z - 0.25) < 1e-16
    assert abs(g.w - 0.25) < 1e-16
    assert abs(g.theta1 - math.pi / 3.0) < 1e-15
    assert abs(g.theta2 + math.pi / 6.0) < 1e-15
    assert g.rotates_frame


def test_gauge_fix_trivial_cases():
    g = gauge_fix(0.0, 0.0)
    assert (g.z, g.w, g.theta1, g.theta2, g.rotates_frame) == (0.0, 0.0, 0.0, 0.0, False)
    g = gauge_fix(0.1, 0.2)
    assert (g.z, g.w, g.rotates_frame) == (0.1, 0.2, False)
    with pytest.raises(InvalidInputError):
        gauge_fix(complex(math.nan, 0.0), 0.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_gauge_fix_rotation_realizes_canonical_form(seed):
    """Conjugating by the returned rotation makes both coherences real >= 0."""
    r = np.random.default_rng(seed)
    z = complex(r.uniform(-0.2, 0.2), r.uniform(-0.2, 0.2))
    w = complex(r.uniform(-0.2, 0.2), r.uniform(-0.2, 0.2))
    m = np.diag([0.3, 0.25, 0.25, 0.2]).astype(complex)
    m[1, 2], m[2, 1] = z, z.conjugate()
    m[0, 3], m[3, 0] = w, w.conjugate()
    g = gauge_fix(z, w)
    u = local_rotation(g.theta1, g.theta2)
    rotated = u @ m @ u.conj().T
    assert abs(rotated[1, 2] - g.z) < 1e-15
    assert abs(rotated[0, 3] - g.w) < 1e-15
    assert max_abs(np.diag(np.diag(rotated)) - np.diag(np.diag(m))) < 1e-15


def test_local_rotation_is_diagonal_unitary():
    u = local_rotation(0.4, -1.1)
    assert max_abs(u @ u.conj().T - ID4) < 1e-15
    assert max_abs(u - np.diag(np.diag(u))) == 0.0


def test_positivity_routes_agree(rng):
    # closed-form block test vs Jacobi eigenvalues at the same floor
    agree = 0
    n_valid = 0
    for _ in range(500):
        pops = rng.uniform(-0.05, 0.35, 4)
        pops = pops / pops.sum()
        z = float(rng.uniform(0.0, 0.4))
        w = float(rng.uniform(0.0, 0.4))
        closed_ok = True
        try:
            XState(a=pops[0], b=pops[1], c=pops[2], d=pops[3], z=z, w=w)
        except PositivityError:
            closed_ok = False
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = pops
        m[1, 2] = m[2, 1] = z
        m[0, 3] = m[3, 0] = w
        eig_ok = bool(eigvals_hermitian(m)[0] >= -1e-10)
        assert closed_ok == eig_ok
        agree += 1
        n_valid += closed_ok
    assert agree == 500
    assert 0 < n_valid < 500  # the draw really exercises both outcomes

    # on the boundary: z^2 = b c (1 + delta) puts the inner block minimum
    # near -delta b c / (b + c) = -1.2e-10 delta / 1e-9, and a bare
    # population sits at -1e-11, exactly at the -1e-10 floor, or at -1e-9
    b, c = 0.2, 0.3
    boundary = [
        ([0.25, b, c, 0.25], math.sqrt(b * c * (1.0 + delta)), 0.1, delta < 1e-9)
        for delta in (1e-12, -1e-12, 1e-9, -1e-9, 1e-8, -1e-8)
    ]
    boundary += [([0.5 + eps, 0.25, 0.25, -eps], 0.0, 0.0, eps <= 1e-10) for eps in (1e-11, 1e-10, 1e-9)]
    for pops, z, w, expected in boundary:
        try:
            XState(a=pops[0], b=pops[1], c=pops[2], d=pops[3], z=z, w=w)
            closed_ok = True
        except PositivityError:
            closed_ok = False
        m = np.diag(pops).astype(complex)
        m[1, 2] = m[2, 1] = z
        m[0, 3] = m[3, 0] = w
        try:
            DensityMatrix(m)  # X-shaped, so its blocks are read in closed form too
            matrix_ok = True
        except ConsistencyError:
            matrix_ok = False
        assert closed_ok == matrix_ok == bool(eigvals_hermitian(m)[0] >= -1e-10) == expected, (pops, z, w)

    # huge entries whose products overflow (Jacobi's off-diagonal norm overflows
    # too): a block with mean <= 0 still reads its minimum as mean - r, and
    # neither route may see a NaN, which passes a plain floor comparison
    for pops, z, w in (
        ([0.5, 0.0, 0.0, 0.5], 1e160, 0.0),
        ([0.5, 0.0, 0.0, 0.5], 0.0, 1e160),
        ([0.0, 1e200, -1e200, 1.0], 0.0, 0.0),
    ):
        with pytest.raises(PositivityError):
            XState(a=pops[0], b=pops[1], c=pops[2], d=pops[3], z=z, w=w)
    for k, min_eig in (((1, 2), "-1e\\+160"), ((0, 3), "-inf")):
        m = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        m[k] = m[k[::-1]] = 1e160
        with pytest.raises(ConsistencyError, match=f"min eigenvalue {min_eig} below"):
            DensityMatrix(m)


def test_state_from_json_abcdzw():
    s = state_from_json({"abcdzw": [0.425, 0.075, 0.075, 0.425, 0.0, 0.35]})
    ref = preset_p_mixture("phi_plus", 0.7)
    for name in ("a", "b", "c", "d", "z", "w"):
        assert abs(getattr(s, name) - getattr(ref, name)) < 1e-16


def test_state_from_json_bloch():
    s = state_from_json({"bloch": [0.0, 0.0, 0.7, -0.7, 0.7]})
    assert s == preset_p_mixture("phi_plus", 0.7)


def test_state_from_json_presets():
    s = state_from_json({"preset": {"name": "werner", "args": [0.8]}})
    assert s == preset_werner(0.8)
    s = state_from_json({"preset": {"name": "p_mixture", "args": ["psi_plus", 0.5]}})
    assert s == preset_p_mixture("psi_plus", 0.5)
    s = state_from_json({"preset": {"name": "bell_diagonal", "args": [0.5, -0.5, 0.5]}})
    assert s == preset_bell_diagonal(0.5, -0.5, 0.5)


def test_state_from_json_schema_errors():
    with pytest.raises(StateFileError, match="exactly one"):
        state_from_json({})
    with pytest.raises(StateFileError, match="exactly one"):
        state_from_json({"abcdzw": [0.25] * 4 + [0.0, 0.0], "bloch": [0.0] * 5})
    with pytest.raises(StateFileError, match="unknown field"):
        state_from_json({"abcdzw": [0.25, 0.25, 0.25, 0.25, 0.0, 0.0], "extra": 1})
    with pytest.raises(StateFileError, match="6 numbers"):
        state_from_json({"abcdzw": [0.5, 0.5]})
    with pytest.raises(StateFileError, match=r"abcdzw\[2\]"):
        state_from_json({"abcdzw": [0.25, 0.25, "x", 0.25, 0.0, 0.0]})
    with pytest.raises(StateFileError, match="5 numbers"):
        state_from_json({"bloch": [0.0] * 4})
    with pytest.raises(StateFileError, match="preset.name"):
        state_from_json({"preset": {"name": "ghz", "args": []}})
    with pytest.raises(StateFileError, match=r"preset.args\[0\]"):
        state_from_json({"preset": {"name": "p_mixture", "args": [3, 0.5]}})
    with pytest.raises(StateFileError, match="JSON object"):
        state_from_json([1, 2, 3])
    with pytest.raises(StateFileError, match=r"abcdzw\[0\]"):
        state_from_json({"abcdzw": [math.inf, 0.25, 0.25, 0.25, 0.0, 0.0]})


def test_state_from_json_physical_errors_pass_through():
    with pytest.raises(NormalizationError):
        state_from_json({"abcdzw": [0.5, 0.5, 0.5, 0.5, 0.0, 0.0]})
    with pytest.raises(PositivityError):
        state_from_json({"preset": {"name": "bell_diagonal", "args": [0.9, 0.9, 0.9]}})
