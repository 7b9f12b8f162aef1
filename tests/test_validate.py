"""Report structure and determinism of the self-validation suite."""
import pathlib
import tracemalloc

import numpy as np
import pytest

from xdyn import RangeError, expm, hamiltonian, propagator, run_validation
from xdyn.validate import BLOCK, CheckResult, ValidationReport, _params_from, _uniform

from conftest import max_abs

DATA = pathlib.Path(__file__).parent / "data"

EXPECTED_CHECKS = {
    "propagator vs matrix exponential",
    "closed evolution vs oracle evolution",
    "bloch round trip",
    "scan conservation: trace",
    "scan conservation: hermiticity",
    "scan conservation: eigenvalue floor",
    "scan conservation: purity drift",
    "bell-diagonal closed-form fidelity",
    "three-term overlap law vs oracle",
    "commuting family: oracle fidelity loss",
}

# the five widely printed shortcut forms plus two more bugs the oracle caught
EXPECTED_ERRATA = {
    "population-form overlap aggregate",
    "bloch-form overlap aggregate",
    "inner coherence evolution (sign of the imaginary part)",
    "c2 shortcut (z - w)",
    "werner common bloch value ((2x-1)/12)",
    "outer eigenvector normalizer (1 + (B+-eta)/Delta)^(-1/2)",
    "c1 - c2 decay law (cos^2(eta*t))",
}


def test_run_validation_passes():
    report = run_validation(seed=5, cases=30)
    assert report.passed
    assert {c.name for c in report.checks} == EXPECTED_CHECKS
    for c in report.checks:
        assert c.passed, c


def test_adjudication_outcomes():
    report = run_validation(seed=5, cases=30)
    by_name = {e.name: e for e in report.errata}
    assert set(by_name) == EXPECTED_ERRATA
    # every quoted shortcut is inconsistent with the oracle, and each
    # detail records the corrected form's residual
    for e in report.errata:
        assert e.consistent is False
        assert "matches" in e.detail or "correction" in e.detail


def test_report_render_is_deterministic():
    a = run_validation(seed=11, cases=20).render()
    b = run_validation(seed=11, cases=20).render()
    assert a == b
    assert a.endswith("result: PASS\n")
    assert "binding checks:" in a
    assert "[inconsistent, corrected form fitted]" in a
    assert "[FAIL]" not in a


def test_report_renders_failures():
    report = ValidationReport(
        seed=0,
        cases=10,
        checks=[CheckResult(name="made-up check", passed=False, observed=1.0, tolerance=1e-9)],
        errata=[],
    )
    assert not report.passed
    text = report.render()
    assert "[FAIL] made-up check" in text
    assert text.endswith("result: FAIL\n")


def test_run_validation_input_validation():
    with pytest.raises(RangeError):
        run_validation(seed=0, cases=5)
    with pytest.raises(RangeError):
        run_validation(seed=0.5, cases=20)
    with pytest.raises(RangeError):
        run_validation(seed=True, cases=20)


def test_run_validation_rejects_negative_seed():
    with pytest.raises(RangeError, match="non-negative"):
        run_validation(seed=-1, cases=20)


@pytest.mark.parametrize("seed, cases", [(0, 200), (42, 200), (5, 30)])
def test_report_bytes_match_the_looped_checks(seed, cases):
    # reports written by the per-draw implementation the stacked checks replaced
    expected = (DATA / f"validate_seed{seed}_cases{cases}.txt").read_text()
    assert run_validation(seed=seed, cases=cases).render() == expected


def test_worst_index_replays_the_worst_draw():
    seed, cases = 3, 40
    check = run_validation(seed=seed, cases=cases).checks[0]
    assert check.name == "propagator vs matrix exponential"
    k = check.worst_index
    # the propagator check draws first: five uniforms per case
    u = np.random.default_rng(seed).random((cases, 5))[k]
    p = _params_from(u[:4], k)
    t = float(_uniform(u[4], 0.0, 10.0))
    replay = max_abs(propagator(p, t, include_global_phase=True).matrix - expm(-1j * t * hamiltonian(p)))
    assert replay == check.observed
    # the three-term law is judged on the overlap adjudication's max(60, cases // 2) draws
    draws = {"three-term overlap law vs oracle": 60}
    checks = run_validation(5, 30).checks
    assert all(c.worst_index is not None and 0 <= c.worst_index < draws.get(c.name, 30) for c in checks)


def test_worst_index_is_not_rendered():
    a = CheckResult(name="x", passed=True, observed=1e-13, tolerance=1e-9)
    b = CheckResult(name="x", passed=True, observed=1e-13, tolerance=1e-9, worst_index=7)
    assert a.worst_index is None
    render = lambda c: ValidationReport(seed=0, cases=10, checks=[c]).render()  # noqa: E731
    assert render(a) == render(b)


def test_validation_memory_stays_flat_beyond_one_block():
    run_validation(seed=0, cases=10)  # first-call allocations (LAPACK workspaces) out of the way

    def peak(cases: int) -> int:
        tracemalloc.start()
        try:
            run_validation(seed=0, cases=cases)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * BLOCK) <= 1.5 * peak(BLOCK)
