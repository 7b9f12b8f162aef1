"""Seeded self-validation: binding oracle checks plus formula adjudication.

The binding checks compare every closed form in the package against the
series matrix exponential and fail loudly.  The adjudication section
evaluates several compact shortcut forms that circulate for this system
(aggregate overlap expressions, the (z - w) shortcut for c2, the Werner
common value, the outer eigenvector normalizer, the cos^2 decay law, the
inner coherence sign) and reports, for each, whether it matches the oracle
or which corrected form does.  Adjudication outcomes are informational:
the exit status depends only on the binding checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, model, states
from .dynamics import (
    TimeGrid,
    c_difference_cos2,
    c_difference_predicted,
    evolve_closed,
    evolve_oracle,
)
from .errors import RangeError
from .fidelity import (
    fidelity,
    fidelity_bell_diagonal,
    overlap_bloch_form,
    overlap_population_form,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    tolerance: float

    def __post_init__(self):
        # numpy scalars leak in through max()/comparisons; store plain types
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "observed", float(self.observed))


@dataclass(frozen=True)
class ErrataFinding:
    name: str
    consistent: bool
    detail: str

    def __post_init__(self):
        object.__setattr__(self, "consistent", bool(self.consistent))


@dataclass(frozen=True)
class ValidationReport:
    seed: int
    cases: int
    checks: list[CheckResult] = field(default_factory=list)
    errata: list[ErrataFinding] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"validation report (seed={self.seed}, cases={self.cases})", ""]
        lines.append("binding checks:")
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(
                f"  [{tag}] {c.name:<42s} observed {c.observed: .3e}  (tolerance {c.tolerance:.0e})"
            )
        lines.append("")
        lines.append("reference-form adjudication (informational):")
        for e in self.errata:
            verdict = "consistent" if e.consistent else "inconsistent, corrected form fitted"
            lines.append(f"  [{verdict}] {e.name}")
            for chunk in e.detail.split("; "):
                lines.append(f"      {chunk}")
        lines.append("")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _random_params(rng) -> model.CouplingParams:
    jx, jy, jz, b = rng.uniform(-2.0, 2.0, 4)
    return model.CouplingParams(jx=jx, jy=jy, jz=jz, field=b)


def _random_xstate(rng) -> states.XState:
    pops = rng.random(4) + 1e-3
    pops = pops / pops.sum()
    a, b, c, d = (float(v) for v in pops)
    z = float(rng.random()) * math.sqrt(b * c)
    w = float(rng.random()) * math.sqrt(a * d)
    return states.XState(a=a, b=b, c=c, d=d, z=z, w=w)


def _random_bell_diagonal(rng) -> states.XState:
    c3 = float(rng.uniform(-0.95, 0.95))
    a = (1.0 + c3) / 4.0
    b = (1.0 - c3) / 4.0
    w = float(rng.random()) * a
    z = float(rng.random()) * b
    return states.XState(a=a, b=b, c=b, d=a, z=z, w=w)


def _special_params(rng, k: int) -> model.CouplingParams:
    # Every few draws pin the degenerate corners the closed forms must
    # survive: vanishing anisotropy and vanishing field.
    p = _random_params(rng)
    if k % 10 == 3:
        return model.CouplingParams(jx=p.jx, jy=p.jx, jz=p.jz, field=p.field)
    if k % 10 == 6:
        return model.CouplingParams(jx=p.jx, jy=p.jx + 1e-11 * p.jy, jz=p.jz, field=p.field)
    if k % 10 == 9:
        return model.CouplingParams(jx=p.jx, jy=p.jy, jz=p.jz, field=0.0)
    return p


def _check_propagator(rng, cases: int) -> CheckResult:
    worst = 0.0
    for k in range(cases):
        p = _special_params(rng, k)
        t = float(rng.uniform(0.0, 10.0))
        u_closed = model.propagator(p, t, include_global_phase=True).matrix
        u_oracle = linalg.expm(-1j * t * model.hamiltonian(p))
        worst = max(worst, linalg.max_abs(u_closed - u_oracle))
    return CheckResult("propagator vs matrix exponential", worst <= 1e-9, worst, 1e-9)


def _check_evolution(rng, cases: int) -> CheckResult:
    worst = 0.0
    for k in range(cases):
        s = _random_xstate(rng)
        p = _special_params(rng, k)
        t = float(rng.uniform(0.0, 10.0))
        diff = evolve_closed(s, p, t).matrix - evolve_oracle(s, p, t).matrix
        worst = max(worst, linalg.max_abs(diff))
    return CheckResult("closed evolution vs oracle evolution", worst <= 1e-10, worst, 1e-10)


def _check_bloch_round_trip(rng, cases: int) -> CheckResult:
    worst = 0.0
    for _ in range(cases):
        s = _random_xstate(rng)
        r = states.from_bloch(states.to_bloch(s))
        for name in ("a", "b", "c", "d", "z", "w"):
            worst = max(worst, abs(getattr(s, name) - getattr(r, name)))
    return CheckResult("bloch round trip", worst <= 1e-14, worst, 1e-14)


def _check_conservation(rng, cases: int) -> list[CheckResult]:
    n_scans = max(4, cases // 25)
    worst_trace = 0.0
    worst_herm = 0.0
    worst_purity = 0.0
    min_eig = math.inf
    for k in range(n_scans):
        s = _random_xstate(rng)
        p = _special_params(rng, k)
        f = model.frequencies(p)
        t_max = 3.0 * math.pi / f.eta if f.eta > 0 else 10.0
        p0 = s.purity
        for t in TimeGrid(t_max=t_max, steps=40).times():
            rho = evolve_closed(s, p, float(t)).matrix
            worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))
            worst_herm = max(worst_herm, linalg.max_abs(rho - linalg.dagger(rho)))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(rho)[0]))
            worst_purity = max(worst_purity, abs(linalg.trace_product(rho, rho).real - p0))
    return [
        CheckResult("scan conservation: trace", worst_trace <= 1e-12, worst_trace, 1e-12),
        CheckResult("scan conservation: hermiticity", worst_herm <= 1e-12, worst_herm, 1e-12),
        CheckResult("scan conservation: eigenvalue floor", min_eig >= -1e-10, min_eig, -1e-10),
        CheckResult("scan conservation: purity drift", worst_purity <= 1e-12, worst_purity, 1e-12),
    ]


def _check_bell_fidelity(rng, cases: int) -> CheckResult:
    worst = 0.0
    for k in range(cases):
        s = _random_bell_diagonal(rng)
        p = _special_params(rng, k)
        t = float(rng.uniform(0.0, 10.0))
        v = states.to_bloch(s)
        rho0 = states.to_density(s)
        f_num = fidelity(rho0, evolve_closed(s, p, t))
        f_clo = fidelity_bell_diagonal(v, p, t)
        worst = max(worst, abs(f_num - f_clo))
    return CheckResult("bell-diagonal closed-form fidelity", worst <= 1e-10, worst, 1e-10)


def _fit_coefficient(residuals: np.ndarray, basis: np.ndarray) -> float:
    denom = float(np.dot(basis, basis))
    if denom == 0.0:
        return math.nan
    return float(np.dot(residuals, basis) / denom)


def _errata_overlap_aggregates(rng, cases: int) -> list[ErrataFinding]:
    n = max(60, cases // 2)
    resid_pop, resid_pop_fixed, basis_vals = [], [], []
    resid_bloch, resid_bloch_fixed = [], []
    bell_resid = 0.0
    for k in range(n):
        s = _random_xstate(rng)
        p = _special_params(rng, k + 1)  # keep exact-degenerate draws out of the fit
        t = float(rng.uniform(0.2, 8.0))
        f = model.frequencies(p)
        oracle = linalg.trace_product(states.xstate_matrix(s), evolve_oracle(s, p, t).matrix).real
        v = states.to_bloch(s)
        resid_pop.append(oracle - overlap_population_form(s, p, t))
        resid_pop_fixed.append(oracle - overlap_population_form(s, p, t, corrected=True))
        resid_bloch.append(oracle - overlap_bloch_form(v, p, t))
        resid_bloch_fixed.append(oracle - overlap_bloch_form(v, p, t, corrected=True))
        s2e = (t * model.sinc(f.eta * t)) ** 2
        basis_vals.append(s.w * (s.a - s.d) * p.field * f.delta * s2e)

        bd = _random_bell_diagonal(rng)
        oracle_bd = linalg.trace_product(
            states.xstate_matrix(bd), evolve_oracle(bd, p, t).matrix
        ).real
        bell_resid = max(bell_resid, abs(oracle_bd - overlap_population_form(bd, p, t)))
        bell_resid = max(
            bell_resid, abs(oracle_bd - overlap_bloch_form(states.to_bloch(bd), p, t))
        )

    resid_pop = np.array(resid_pop)
    coeff = _fit_coefficient(resid_pop, np.array(basis_vals))
    max_pop = float(np.max(np.abs(resid_pop)))
    max_pop_fixed = float(np.max(np.abs(resid_pop_fixed)))
    max_bloch = float(np.max(np.abs(resid_bloch)))
    max_bloch_fixed = float(np.max(np.abs(resid_bloch_fixed)))
    tol = 1e-10
    pop = ErrataFinding(
        name="population-form overlap aggregate",
        consistent=max_pop <= tol,
        detail=(
            f"max residual {max_pop:.3e}; "
            f"fitted coefficient {coeff:.6f} on w*(a-d)*B*Delta*sin^2(eta*t)/eta^2; "
            f"residual with correction {max_pop_fixed:.3e}; "
            f"Bell-diagonal subfamily residual {bell_resid:.3e}"
        ),
    )
    bloch = ErrataFinding(
        name="bloch-form overlap aggregate",
        consistent=max_bloch <= tol,
        detail=(
            f"max residual {max_bloch:.3e}; "
            f"missing term (c1-c2)(s1+s2)*B*Delta*sin^2(eta*t)/(2 eta^2); "
            f"residual with correction {max_bloch_fixed:.3e}"
        ),
    )
    return [pop, bloch]


def _errata_inner_sign(rng, cases: int) -> ErrataFinding:
    n = max(40, cases // 4)
    worst_printed = 0.0
    worst_closed = 0.0
    for k in range(n):
        s = _random_xstate(rng)
        p = _special_params(rng, k)
        t = float(rng.uniform(0.2, 8.0))
        f = model.frequencies(p)
        oracle = evolve_oracle(s, p, t).matrix[1, 2]
        printed = s.z - 1j * (s.b - s.c) * math.sin(2.0 * f.omega * t) / 2.0
        closed = evolve_closed(s, p, t).matrix[1, 2]
        worst_printed = max(worst_printed, abs(printed - oracle))
        worst_closed = max(worst_closed, abs(closed - oracle))
    return ErrataFinding(
        name="inner coherence evolution (sign of the imaginary part)",
        consistent=worst_printed <= 1e-10,
        detail=(
            f"quoted z - i(b-c)sin(2*omega*t)/2 misses by {worst_printed:.3e}; "
            f"z + i(b-c)sin(2*omega*t)/2 matches the oracle within {worst_closed:.3e}"
        ),
    )


def _errata_c2_shortcut(rng, cases: int) -> ErrataFinding:
    n = max(40, cases // 4)
    printed_vals, oracle_vals = [], []
    for _ in range(n):
        s = _random_xstate(rng)
        printed_vals.append(s.z - s.w)
        oracle_vals.append(states.to_bloch(s).c2)
    printed = np.array(printed_vals)
    oracle = np.array(oracle_vals)
    worst = float(np.max(np.abs(oracle - printed)))
    factor = _fit_coefficient(oracle, printed)
    worst_fixed = float(np.max(np.abs(oracle - 2.0 * printed)))
    return ErrataFinding(
        name="c2 shortcut (z - w)",
        consistent=worst <= 1e-10,
        detail=(
            f"max residual {worst:.3e} against the trace definition; "
            f"fitted factor {factor:.6f}; "
            f"2*(z - w) matches within {worst_fixed:.3e}"
        ),
    )


def _errata_werner_value(rng, cases: int) -> ErrataFinding:
    n = max(40, cases // 4)
    worst_12 = 0.0
    worst_3 = 0.0
    spread = 0.0
    for _ in range(n):
        x = float(rng.uniform(-1.0, 1.0))
        v = states.to_bloch(states.preset_werner(x))
        # stored state is canonical, so compare magnitudes on c1 = c2 and
        # the signed value on c3 (untouched by canonicalization)
        spread = max(spread, abs(v.c1 - v.c2), abs(abs(v.c3) - abs(v.c1)))
        worst_12 = max(worst_12, abs(abs(v.c3) - abs(2.0 * x - 1.0) / 12.0))
        worst_3 = max(worst_3, abs(v.c3 - (2.0 * x - 1.0) / 3.0))
    return ErrataFinding(
        name="werner common bloch value ((2x-1)/12)",
        consistent=worst_12 <= 1e-10,
        detail=(
            f"max residual {worst_12:.3e} for (2x-1)/12; "
            f"(2x-1)/3 matches the trace definition within {worst_3:.3e}; "
            f"coefficient equality spread {spread:.3e}"
        ),
    )


def _errata_normalizer(rng, cases: int) -> ErrataFinding:
    n = max(40, cases // 4)
    worst_printed = 0.0
    undefined = 0
    worst_true_norm = 0.0
    for _ in range(n):
        p = _random_params(rng)
        f = model.frequencies(p)
        if abs(f.delta) < 1e-6:
            continue
        sp = model.spectrum(p)
        for idx, branch in ((0, +1.0), (1, -1.0)):
            ratio = (p.field + branch * f.eta) / f.delta
            radicand = 1.0 + ratio
            true_norm = 1.0 / math.sqrt(1.0 + ratio * ratio)
            worst_true_norm = max(worst_true_norm, abs(sp.norms[idx] - true_norm))
            if radicand <= 0.0:
                undefined += 1
                continue
            worst_printed = max(worst_printed, abs(radicand**-0.5 - sp.norms[idx]))
    return ErrataFinding(
        name="outer eigenvector normalizer (1 + (B+-eta)/Delta)^(-1/2)",
        consistent=worst_printed <= 1e-10 and undefined == 0,
        detail=(
            f"max residual {worst_printed:.3e} against the unit-norm value; "
            f"{undefined} draws where the quoted radicand is not even positive; "
            f"squared-ratio form (1 + ((B+-eta)/Delta)^2)^(-1/2) matches within {worst_true_norm:.3e}"
        ),
    )


def _errata_c_diff_law(rng, cases: int) -> ErrataFinding:
    n = max(60, cases // 2)
    worst_cos2 = 0.0
    worst_linear = 0.0
    crossings = 0
    for k in range(n):
        s = _random_bell_diagonal(rng)
        p = _special_params(rng, k)
        t = float(rng.uniform(0.2, 8.0))
        v = states.to_bloch(s)
        vt = states.bloch_from_density(evolve_oracle(s, p, t))
        oracle = vt.c1 - vt.c2
        worst_cos2 = max(worst_cos2, abs(oracle - c_difference_cos2(v, p, t)))
        worst_linear = max(worst_linear, abs(oracle - c_difference_predicted(v, p, t)))
        if (v.c1 - v.c2) > 1e-6 and oracle < -1e-6:
            crossings += 1
    return ErrataFinding(
        name="c1 - c2 decay law (cos^2(eta*t))",
        consistent=worst_cos2 <= 1e-10,
        detail=(
            f"max residual {worst_cos2:.3e} for the cos^2 law; "
            f"(1 - 2 B^2 sin^2(eta t)/eta^2) matches the oracle within {worst_linear:.3e}; "
            f"{crossings} draws crossed the c1 = c2 plane (possible exactly when B^2 > Delta^2)"
        ),
    )


def run_validation(seed: int = 0, cases: int = 200) -> ValidationReport:
    """Run the binding checks and the adjudication suite.

    Args:
        seed: RNG seed; identical seeds reproduce the report byte for byte.
        cases: draw budget for the binding checks (adjudication items use
            proportional shares).  At least 10.
    """
    if isinstance(cases, bool) or not isinstance(cases, int) or cases < 10:
        raise RangeError(f"run_validation: cases must be an int >= 10, got {cases!r}")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise RangeError(f"run_validation: seed must be a non-negative int, got {seed!r}")
    rng = np.random.default_rng(seed)
    checks = [
        _check_propagator(rng, cases),
        _check_evolution(rng, cases),
        _check_bloch_round_trip(rng, cases),
    ]
    checks.extend(_check_conservation(rng, cases))
    checks.append(_check_bell_fidelity(rng, cases))
    errata = []
    errata.extend(_errata_overlap_aggregates(rng, cases))
    errata.append(_errata_inner_sign(rng, cases))
    errata.append(_errata_c2_shortcut(rng, cases))
    errata.append(_errata_werner_value(rng, cases))
    errata.append(_errata_normalizer(rng, cases))
    errata.append(_errata_c_diff_law(rng, cases))
    return ValidationReport(seed=seed, cases=cases, checks=checks, errata=errata)
