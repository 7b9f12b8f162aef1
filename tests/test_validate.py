"""Report structure and determinism of the self-validation suite."""
import pytest

from xdyn import RangeError, run_validation
from xdyn.validate import CheckResult, ValidationReport

EXPECTED_CHECKS = {
    "propagator vs matrix exponential",
    "closed evolution vs oracle evolution",
    "bloch round trip",
    "scan conservation: trace",
    "scan conservation: hermiticity",
    "scan conservation: eigenvalue floor",
    "scan conservation: purity drift",
    "bell-diagonal closed-form fidelity",
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
