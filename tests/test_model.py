"""Hamiltonian, spectrum, and propagator checks.

The closed-form spectrum is checked against numpy's eigensolver and
against eigen-residuals of the Hamiltonian itself; the closed-form
propagator is checked against the package's own series expm (the two
routes share no code).
"""
import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdyn import (
    CouplingParams,
    InvalidInputError,
    RangeError,
    expm,
    hamiltonian,
    propagator,
    sinc,
    spectrum,
)
from xdyn.linalg import ID4

from conftest import max_abs, random_params

SQRT_17_OVER_2 = 2.0615528128088303  # sqrt(4.25)


def test_frequencies_frozen():
    p = CouplingParams(jx=1.0, jy=0.0, jz=0.0, field=2.0)
    assert p.delta == 0.5
    assert p.omega == 0.5
    assert abs(p.eta - SQRT_17_OVER_2) < 1e-15


@pytest.mark.parametrize(
    "coupling, names",
    [
        ((1e308, -1e308, 0.0, 0.0), "eta = inf, omega = 0.0"),  # Delta overflows, and eta with it
        ((1e308, 1e308, 0.0, 1.0), "eta = 1.0, omega = inf"),
        ((1.5e308, 0.0, 0.0, 1.7e308), "eta = inf, omega = 7.5e+307"),  # hypot overflows
    ],
    ids=["eta", "omega", "hypot"],
)
def test_frequencies_refuse_overflow(coupling, names):
    # a RangeError naming both frequencies, before numpy warns (warnings are errors here),
    # at the first use of any of the three, and at every use after it
    p = CouplingParams(*coupling)
    for name in ("eta", "omega", "delta", "eta"):
        with pytest.raises(RangeError, match=f"overflow a float: {re.escape(names)}$"):
            getattr(p, name)


def test_stacked_frequencies_name_the_first_overflowing_element():
    jx = np.array([[1.0, 1.0], [1.0, 1e308]])
    p = CouplingParams(jx, -jx, np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(RangeError, match=r"overflow a float\[1, 1\]: eta = inf, omega = 0.0$"):
        p.eta


def test_spectrum_refuses_an_overflowing_energy():
    # finite frequencies, but jz/2 + eta is not a float
    with pytest.raises(RangeError, match="^spectrum: an energy overflows a float"):
        spectrum(CouplingParams(8.98e307, -8.98e307, 1.7e308, 5e307))


@pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
@pytest.mark.parametrize("field", [0.8, -0.8])
def test_spectrum_scales_with_the_couplings(k, field):
    # couplings scaled by 2^k scale the energies and leave the eigenvectors and
    # norms as they were, also where the squares of the couplings overflow or underflow
    base = spectrum(CouplingParams(1.0, 0.4, 0.5, field))
    sp = spectrum(CouplingParams(*(math.ldexp(x, k) for x in (1.0, 0.4, 0.5, field))))
    assert np.array_equal(sp.energies, np.ldexp(base.energies, k))
    assert max_abs(sp.eigenvectors - base.eigenvectors) < 1e-15
    assert np.allclose(sp.norms, base.norms, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("field, outer", [(1e308, [[1, 0], [0, 1]]), (-1e308, [[0, 1], [1, 0]])])
def test_spectrum_at_the_largest_field(field, outer):
    # |field| + eta overflows a float, but the outer eigenvectors are still |00> and |11>
    sp = spectrum(CouplingParams(1.0, 1.0, 0.0, field))
    assert np.array_equal(abs(sp.eigenvectors[[0, 3]][:, :2]), outer)


def test_hamiltonian_frozen_entries():
    h = hamiltonian(CouplingParams(jx=1.0, jy=0.0, jz=0.5, field=2.0))
    expected = np.array(
        [
            [2.25, 0.0, 0.0, 0.5],
            [0.0, -0.25, 0.5, 0.0],
            [0.0, 0.5, -0.25, 0.0],
            [0.5, 0.0, 0.0, -1.75],
        ],
        dtype=complex,
    )
    assert max_abs(h - expected) < 1e-15


def test_hamiltonian_is_hermitian_and_traceless(rng):
    for _ in range(20):
        h = hamiltonian(random_params(rng))
        assert max_abs(h - h.conj().T) == 0.0
        assert abs(np.trace(h)) < 1e-15


def test_hamiltonian_x_shape(rng):
    h = hamiltonian(random_params(rng))
    for i in range(4):
        for j in range(4):
            if i != j and i + j != 3:
                assert h[i, j] == 0.0


def test_spectrum_frozen_cases():
    e1 = spectrum(CouplingParams(jx=1.0, jy=0.0, jz=0.0, field=2.0)).energies
    assert np.allclose(
        e1, [SQRT_17_OVER_2, -SQRT_17_OVER_2, 0.5, -0.5], rtol=0, atol=1e-15
    )
    e2 = spectrum(CouplingParams(jx=1.0, jy=0.0, jz=0.5, field=2.0)).energies
    assert np.allclose(
        e2,
        [2.3115528128088303, -1.8115528128088303, 0.25, -0.75],
        rtol=0,
        atol=1e-15,
    )
    e3 = spectrum(CouplingParams(jx=1.0, jy=1.0, jz=1.0, field=0.0)).energies
    assert np.allclose(e3, [0.5, 0.5, 0.5, -1.5], rtol=0, atol=1e-15)


def test_spectrum_matches_numpy(rng):
    for _ in range(200):
        p = random_params(rng)
        e = np.sort(spectrum(p).energies)
        ref = np.linalg.eigvalsh(hamiltonian(p))
        assert np.max(np.abs(e - ref)) < 1e-12


def test_spectrum_eigen_residuals(rng):
    for _ in range(100):
        p = random_params(rng)
        sp = spectrum(p)
        h = hamiltonian(p)
        for k in range(4):
            v = sp.eigenvectors[:, k]
            assert max_abs(h @ v - sp.energies[k] * v) < 1e-12
        gram = sp.eigenvectors.conj().T @ sp.eigenvectors
        assert max_abs(gram - ID4) < 1e-14


def test_spectrum_norms_frozen():
    sp = spectrum(CouplingParams(jx=1.0, jy=0.0, jz=0.0, field=2.0))
    assert abs(sp.norms[0] - 0.12218326369570447) < 1e-15
    assert abs(sp.norms[1] - 0.9925075566829031) < 1e-15


def test_spectrum_norms_field_sign_symmetry():
    plus = spectrum(CouplingParams(jx=1.0, jy=0.0, jz=0.0, field=2.0))
    minus = spectrum(CouplingParams(jx=1.0, jy=0.0, jz=0.0, field=-2.0))
    # flipping the field swaps which branch hugs |00> vs |11>
    assert abs(plus.norms[0] - minus.norms[1]) < 1e-15
    assert abs(plus.norms[1] - minus.norms[0]) < 1e-15


def test_spectrum_norms_never_cancel(rng):
    # naive field - eta loses digits when field >> delta; the norms must not
    for field in (37.0, -37.0):
        p = CouplingParams(jx=1e-4, jy=0.0, jz=0.0, field=field)
        n_plus, n_minus = spectrum(p).norms
        exact_plus = abs(p.delta) / math.hypot(field + p.eta, p.delta)
        # reference via the stable half-angle identity
        small = p.delta**2 / (p.eta + abs(field))
        exact_small = abs(p.delta) / math.hypot(small, p.delta)
        got_small = n_minus if field > 0 else n_plus
        got_large = n_plus if field > 0 else n_minus
        assert abs(got_small - exact_small) / exact_small < 1e-13
        if field > 0:
            assert abs(got_large - exact_plus) / exact_plus < 1e-13


def test_spectrum_norms_zero_at_zero_anisotropy():
    assert spectrum(CouplingParams(jx=1.0, jy=1.0, jz=0.3, field=0.7)).norms == (0.0, 0.0)


def test_propagator_identity_at_t_zero(rng):
    p = random_params(rng)
    assert max_abs(propagator(p, 0.0).matrix - ID4) == 0.0
    assert max_abs(propagator(p, 0.0, include_global_phase=True).matrix - ID4) == 0.0


def test_propagator_frozen_delta_zero():
    # jx = jy kills the outer coupling: U is diagonal plus the inner swap
    p = CouplingParams(jx=1.0, jy=1.0, jz=1.0, field=1.0)
    u = propagator(p, math.pi / 2.0).matrix
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = -1j
    expected[3, 3] = 1j
    expected[1, 2] = 1.0
    expected[2, 1] = 1.0
    assert max_abs(u - expected) < 1e-15


def test_propagator_vs_expm(rng):
    worst = 0.0
    for k in range(200):
        p = random_params(rng)
        if k % 10 == 0:
            p = CouplingParams(jx=p.jx, jy=p.jx, jz=p.jz, field=p.field)
        if k % 10 == 5:
            p = CouplingParams(jx=p.jx, jy=p.jy, jz=p.jz, field=0.0)
        t = float(rng.uniform(0.0, 10.0))
        u = propagator(p, t, include_global_phase=True).matrix
        ref = expm(-1j * t * hamiltonian(p))
        worst = max(worst, max_abs(u - ref))
    assert worst < 1e-12


def test_propagator_unitary(rng):
    for _ in range(100):
        p = random_params(rng)
        u = propagator(p, float(rng.uniform(0.0, 20.0))).matrix
        assert max_abs(u @ u.conj().T - ID4) < 1e-14


def test_propagator_phase_flag_is_a_scalar_factor(rng):
    p = random_params(rng)
    t = 1.7
    bare = propagator(p, t)
    full = propagator(p, t, include_global_phase=True)
    phase = cmath.exp(-0.5j * p.jz * t)
    assert max_abs(full.matrix - phase * bare.matrix) < 1e-15
    # block entries are phase-stripped in both
    assert bare.mu_plus == full.mu_plus
    assert bare.delta_entry == full.delta_entry


def test_propagator_entries_match_matrix(rng):
    p = random_params(rng)
    u = propagator(p, 2.3)
    assert u.matrix[0, 0] == u.mu_plus.conjugate()
    assert u.matrix[3, 3] == u.mu_plus
    assert u.matrix[0, 3] == -u.delta_entry
    assert u.matrix[3, 0] == -u.delta_entry


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_propagator_determinant_modulus_one(seed):
    """Unitarity seen through the determinant, for any couplings and time."""
    r = np.random.default_rng(seed)
    p = CouplingParams(*(float(x) for x in r.uniform(-3.0, 3.0, 4)))
    t = float(r.uniform(0.0, 12.0))
    d = np.linalg.det(propagator(p, t, include_global_phase=True).matrix)
    assert abs(abs(d) - 1.0) < 1e-12


def test_sinc_values():
    assert sinc(0.0) == 1.0
    assert abs(sinc(1e-12) - 1.0) < 1e-16
    # true value 1 - 6.7e-17 sits within one ulp of 1.0 on either branch
    assert abs(sinc(2e-8) - 1.0) < 2e-16
    assert abs(sinc(1e-7) - 0.9999999999999983) < 1e-15
    assert abs(sinc(math.pi)) < 1e-16
    assert abs(sinc(-1.5) - math.sin(1.5) / 1.5) < 1e-16


def test_sinc_continuous_across_series_threshold():
    below = sinc(9.999999e-9)
    above = sinc(1.0000001e-8)
    assert abs(below - above) < 1e-15


def test_params_reject_non_finite():
    with pytest.raises(InvalidInputError):
        CouplingParams(jx=math.nan, jy=0.0, jz=0.0, field=0.0)
    with pytest.raises(InvalidInputError):
        CouplingParams(jx=0.0, jy=math.inf, jz=0.0, field=0.0)
    with pytest.raises(InvalidInputError):
        propagator(CouplingParams(jx=1.0, jy=0.0, jz=0.0, field=0.0), math.inf)
    with pytest.raises(InvalidInputError, match=r"^CouplingParams.jx must be finite, got an int too large for a float$"):
        CouplingParams(jx=10**400, jy=0.0, jz=0.0, field=0.0)


@pytest.mark.parametrize("value", [True, False, "1", None, 1j])
def test_params_reject_non_real(value):
    # the same refusal XState and TimeGrid give a bool or a str, not "must be finite"
    with pytest.raises(InvalidInputError, match=rf"^CouplingParams.jz must be a real number, got {value!r}$"):
        CouplingParams(jx=0.0, jy=0.0, jz=value, field=0.0)


def test_params_store_floats():
    p = CouplingParams(jx=1, jy=0, jz=-2, field=0.5)
    assert [type(v) for v in (p.jx, p.jy, p.jz, p.field)] == [float] * 4
    assert p == CouplingParams(1.0, 0.0, -2.0, 0.5)
    with pytest.raises(InvalidInputError, match=r"^CouplingParams.field must be finite, got nan$"):
        CouplingParams(jx=0.0, jy=0.0, jz=0.0, field=np.float64("nan"))


def test_energies_sum_to_zero(rng):
    for _ in range(50):
        assert abs(spectrum(random_params(rng)).energies.sum()) < 1e-14
