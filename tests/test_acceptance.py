"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; under default capture they appear only for failures.  Every
criterion draws from its own fixed seed, so reruns are bit-for-bit
repeatable.  Tolerances are pinned here, not imported, so a drift in
library defaults cannot silently weaken the gate.
"""
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from conftest import max_abs, random_bell_diagonal, random_params, random_xstate
from xdyn import (
    CouplingParams,
    PositivityError,
    TimeGrid,
    XState,
    classify,
    detect_period,
    evolve_closed,
    evolve_oracle,
    expm,
    fidelity,
    hamiltonian,
    preset_p_mixture,
    preset_werner,
    propagator,
    scan,
    to_density,
)

CSV_HEADER = "t,f_numeric,f_closed,purity,c1_minus_c2"


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label} ({detail})")


def test_c01_propagator_matches_matrix_exponential():
    rng = np.random.default_rng(101)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(500):
        p = random_params(rng)
        t = float(rng.uniform(0.0, 10.0))
        exact = expm(-1j * hamiltonian(p) * t)
        u = propagator(p, t, include_global_phase=True).matrix
        worst = max(worst, max_abs(exact - u))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(1, "closed propagator matches the matrix exponential",
            ok, f"max defect {worst:.2e} over 500 draws in {elapsed:.2f} s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_c02_closed_evolution_matches_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    n_degenerate = 0
    n_zero_field = 0
    for k in range(1000):
        s = random_xstate(rng)
        p = random_params(rng)
        if k % 20 == 3:
            p = replace(p, jy=p.jx)
            n_degenerate += 1
        elif k % 20 == 11:
            p = replace(p, field=0.0)
            n_zero_field += 1
        t = float(rng.uniform(0.0, 10.0))
        diff = evolve_closed(s, p, t).matrix - evolve_oracle(s, p, t).matrix
        worst = max(worst, max_abs(diff))
    ok = worst <= 1e-10 and n_degenerate >= 50 and n_zero_field >= 50
    _report(2, "closed evolution matches the series oracle", ok,
            f"max entry defect {worst:.2e}; {n_degenerate} equal-coupling "
            f"and {n_zero_field} zero-field draws included")
    assert n_degenerate >= 50 and n_zero_field >= 50
    assert worst <= 1e-10


def test_c03_conservation_laws_hold_along_scans():
    rng = np.random.default_rng(303)
    worst_trace = 0.0
    worst_herm = 0.0
    floor_eig = math.inf
    worst_drift = 0.0
    for _ in range(100):
        s = random_xstate(rng)
        p = random_params(rng)
        m0 = to_density(s).matrix
        purity0 = float(np.trace(m0 @ m0).real)
        for t in TimeGrid(t_max=float(rng.uniform(2.0, 12.0)), steps=41).times():
            m = evolve_closed(s, p, float(t)).matrix
            worst_trace = max(worst_trace, abs(np.trace(m) - 1.0))
            worst_herm = max(worst_herm, max_abs(m - m.conj().T))
            floor_eig = min(floor_eig, float(np.linalg.eigvalsh(m)[0]))
            worst_drift = max(worst_drift, abs(float(np.trace(m @ m).real) - purity0))
    ok = (worst_trace <= 1e-12 and worst_herm <= 1e-12
          and floor_eig >= -1e-10 and worst_drift <= 1e-12)
    _report(3, "trace, Hermiticity, positivity and purity conserved", ok,
            f"trace {worst_trace:.2e}, herm {worst_herm:.2e}, "
            f"min eig {floor_eig:.2e}, purity drift {worst_drift:.2e} "
            f"over 100 scans x 41 samples")
    assert worst_trace <= 1e-12
    assert worst_herm <= 1e-12
    assert floor_eig >= -1e-10
    assert worst_drift <= 1e-12


def test_c04_bell_diagonal_fidelity_closed_form():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(200):
        s = random_bell_diagonal(rng)
        p = random_params(rng)
        grid = TimeGrid(t_max=float(rng.uniform(3.0, 12.0)), steps=100)
        trace = scan(s, p, grid)
        assert trace.f_closed is not None
        worst = max(worst, float(np.max(np.abs(trace.f_numeric - trace.f_closed))))
    ok = worst <= 1e-10
    _report(4, "Bell-diagonal fidelity matches its closed form", ok,
            f"max |numeric - closed| {worst:.2e} over 200 states x 100 times")
    assert worst <= 1e-10


def _stationary_worst(s: XState, p: CouplingParams, draws_label: str) -> float:
    assert classify(s, p).kind == "stationary", draws_label
    eta = p.eta  # the window of three pi/eta that period keeps for a stationary state
    t_max = 3.0 * (math.pi / eta) if eta else 10.0
    trace = scan(s, p, TimeGrid(t_max=t_max, steps=150))
    return float(np.max(1.0 - trace.f_numeric))


def test_c05_stationary_families_hold_fidelity_one():
    rng = np.random.default_rng(505)
    worst = {}

    w = 0.0
    for _ in range(12):
        jx = float(rng.uniform(-2.0, 2.0))
        jy = jx + float(rng.uniform(0.3, 2.0)) * float(rng.choice([-1.0, 1.0]))
        p = CouplingParams(jx=jx, jy=jy, jz=float(rng.uniform(-2.0, 2.0)), field=0.0)
        w = max(w, _stationary_worst(random_bell_diagonal(rng), p, "zero field"))
    worst["zero-field Bell-diagonal"] = w

    w = 0.0
    for _ in range(12):
        s = random_bell_diagonal(rng)
        s = XState(a=s.a, b=s.b, c=s.c, d=s.d, z=s.z, w=0.0)  # w = 0 forces c1 = c2
        p = random_params(rng)
        p = replace(p, field=float(rng.uniform(0.3, 2.0)) * float(rng.choice([-1.0, 1.0])))
        w = max(w, _stationary_worst(s, p, "c1 = c2"))
    worst["c1 = c2 Bell-diagonal, nonzero field"] = w

    w = 0.0
    for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
        p = replace(random_params(rng), field=1.5)
        w = max(w, _stationary_worst(preset_werner(x), p, "werner"))
    worst["five-point swap-mixture family, field 1.5"] = w

    w = 0.0
    for _ in range(12):
        kind = "psi_plus" if rng.random() < 0.5 else "psi_minus"
        s = preset_p_mixture(kind, float(rng.uniform(0.0, 1.0)))
        w = max(w, _stationary_worst(s, random_params(rng), "psi mixtures"))
    worst["inner Bell mixtures, any field"] = w

    overall = max(worst.values())
    ok = overall <= 1e-12
    _report(5, "stationary families keep fidelity at one", ok,
            "; ".join(f"{k}: {v:.2e}" for k, v in worst.items()))
    for key, value in worst.items():
        assert value <= 1e-12, key


def test_c06_mixture_fidelity_law_and_minimum():
    p_weight = 0.7
    p = CouplingParams(jx=1.0, jy=1.0, jz=0.5, field=1.0)
    s = preset_p_mixture("phi_plus", p_weight)
    grid = TimeGrid(t_max=10.0, steps=2000)
    trace = scan(s, p, grid)
    eta = 1.0  # field 1, zero anisotropy
    predicted = 1.0 - (4.0 * p_weight**2 * p.field**2
                       * np.sin(eta * trace.times) ** 2
                       / ((1.0 + 3.0 * p_weight**2) * eta**2))
    worst = float(np.max(np.abs(trace.f_numeric - predicted)))

    pure = preset_p_mixture("phi_plus", 1.0)
    f_quarter = fidelity(to_density(pure), evolve_closed(pure, p, math.pi / 2.0))
    trace_pure = scan(pure, p, TimeGrid(t_max=math.pi, steps=3))
    k_min = int(np.argmin(trace_pure.f_numeric))

    ok = worst <= 1e-10 and f_quarter <= 1e-10 and k_min == 1
    _report(6, "mixture fidelity law and its zero minimum", ok,
            f"max law defect {worst:.2e} at 2000 samples; "
            f"pure-state fidelity {f_quarter:.2e} at t = pi/2")
    assert worst <= 1e-10
    assert f_quarter <= 1e-10
    assert k_min == 1, "minimum not at t = pi/2"


def _default_grid(s: XState, p: CouplingParams) -> TimeGrid:
    # period's default window: three of classify's periods
    return TimeGrid(t_max=3.0 * classify(s, p).period, steps=5000)


def test_c07_period_detection_on_default_grid():
    s = preset_p_mixture("phi_plus", 0.7)

    p_a = CouplingParams(jx=1.0, jy=1.0, jz=0.5, field=0.5)
    found_a = detect_period(scan(s, p_a, _default_grid(s, p_a)))
    rel_a = abs(found_a - 2.0 * math.pi) / (2.0 * math.pi)

    p_b = CouplingParams(jx=2.0, jy=0.0, jz=0.5, field=1.0)
    expected_b = math.pi / math.sqrt(2.0)
    found_b = detect_period(scan(s, p_b, _default_grid(s, p_b)))
    rel_b = abs(found_b - expected_b) / expected_b

    ok = rel_a <= 1e-4 and rel_b <= 1e-4
    _report(7, "period detection on the default grid", ok,
            f"equal couplings: {found_a:.6f} vs 2*pi (rel {rel_a:.1e}); "
            f"anisotropic: {found_b:.6f} vs pi/sqrt(2) (rel {rel_b:.1e})")
    assert rel_a <= 1e-4
    assert rel_b <= 1e-4


def test_c08_validate_subcommand_adjudicates():
    proc = subprocess.run(
        [sys.executable, "-m", "xdyn.cli", "validate", "--seed", "0", "--cases", "120"],
        capture_output=True, text=True, timeout=120,
    )
    required = [
        "population-form overlap aggregate",
        "c2 shortcut",
        "werner common bloch value",
        "outer eigenvector normalizer",
        "c1 - c2 decay law",
    ]
    lines = proc.stdout.splitlines()
    adjudicated = 0
    corrected = 0
    for key in required:
        hits = [ln for ln in lines if key in ln and ln.strip().startswith("[")]
        if len(hits) == 1 and ("[consistent]" in hits[0]
                               or "[inconsistent, corrected form fitted]" in hits[0]):
            adjudicated += 1
            corrected += "[inconsistent" in hits[0]
    ok = proc.returncode == 0 and adjudicated == len(required)
    _report(8, "validate subcommand adjudicates the quoted forms", ok,
            f"exit {proc.returncode}; {adjudicated}/{len(required)} forms "
            f"adjudicated, {corrected} reported with a corrected fit")
    assert proc.returncode == 0, proc.stderr
    assert adjudicated == len(required)


def test_c09_positivity_routes_agree_everywhere():
    rng = np.random.default_rng(909)
    n = 10_000
    n_valid = 0
    disagreements = 0
    for _ in range(n):
        pops = rng.uniform(-0.05, 0.35, 4)
        while abs(pops.sum()) < 0.2:
            pops = rng.uniform(-0.05, 0.35, 4)
        pops = pops / pops.sum()
        a, b, c, d = (float(v) for v in pops)
        z = float(rng.uniform(0.0, 0.4))
        w = float(rng.uniform(0.0, 0.4))
        try:
            XState(a=a, b=b, c=c, d=d, z=z, w=w)
            closed_ok = True
        except PositivityError:
            closed_ok = False
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = a, b, c, d
        m[1, 2] = m[2, 1] = z
        m[0, 3] = m[3, 0] = w
        eig_ok = bool(np.linalg.eigvalsh(m)[0] >= -1e-10)
        n_valid += closed_ok
        disagreements += closed_ok != eig_ok
    ok = disagreements == 0 and 0 < n_valid < n
    _report(9, "closed-form positivity test agrees with the eigensolver", ok,
            f"{disagreements} disagreements over {n} draws "
            f"({n_valid} accepted, {n - n_valid} rejected)")
    assert disagreements == 0
    assert 0 < n_valid < n, "draw ensemble failed to probe both outcomes"


def test_c10_scan_csv_byte_identical(tmp_path):
    from xdyn.cli import main

    argv = ["scan", "--jx", "1.0", "--jy", "0.3", "--jz", "0.5", "--field", "0.8",
            "--state", "phi_plus_mix:0.6", "--t-max", "7.5", "--steps", "400",
            "--format", "csv"]
    out1 = tmp_path / "first.csv"
    out2 = tmp_path / "second.csv"
    rc1 = main(argv + ["--out", str(out1)])
    rc2 = main(argv + ["--out", str(out2)])
    b1 = out1.read_bytes()
    b2 = out2.read_bytes()
    text_lines = b1.decode("ascii").split("\n")
    header_ok = text_lines[0] == CSV_HEADER
    rows = len(text_lines) - 2  # header and trailing newline artifact
    ok = (rc1 == rc2 == 0 and b1 == b2 and header_ok and rows == 400)
    _report(10, "scan output is byte-identical across reruns", ok,
            f"{len(b1)} bytes, {rows} rows, header {'ok' if header_ok else 'WRONG'}")
    assert rc1 == 0 and rc2 == 0
    assert b1 == b2
    assert header_ok
    assert rows == 400
