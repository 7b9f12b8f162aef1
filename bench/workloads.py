"""Seeded requests for the four workloads, and the check of each output.

Request k of a run is a pure function of (workload, seed, k), so the
same seed gives the same requests and a replay in another process can
rebuild them.  Every request in a run is distinct.  Each workload walks a
fixed cycle of request classes; the seed only varies the values inside a
class, so every whole cycle carries the same mix of work, which keeps
per-run figures comparable across seeds.

Checks use ``reference`` (numpy eigh, no xdyn code) and run outside the
timed region.  ``check`` returns None for a correct output or a one-line
reason.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

WORKLOADS = ("trajectory", "verdict", "referee", "pointwise")

CSV_HEADER = "t,f_numeric,f_closed,purity,c1_minus_c2"
SPOT_ROWS = 8
VALIDATE_CASES = 200

# Classes for trajectory: (command, format, steps, state family, explicit --t-max).
# period runs on Bell-diagonal states only: their fidelity has one mode, so
# the default window of three nominal periods always holds three minima.  On
# a two-mode state that window can hold fewer than two deep minima, and
# period then refuses with exit 1 (InsufficientSpanError) by design.
TRAJECTORY_CYCLE = (
    ("scan", "csv", 2000, "bell", False),
    ("scan", "json", 5000, "generic", True),
    ("scan", "csv", 10000, "generic", False),
    ("period", None, 5000, "bell", False),
    ("scan", "csv", 5000, "generic", True),
    ("scan", "json", 2000, "bell", True),
)

# Classes for verdict.  The empirical classify scans
# ceil(3 |omega|/eta + 6) * 300 + 1 samples when |omega| > eta, so each
# class pins |omega|/eta inside an interval that yields one step count
# (3001 or 3601); the corners scan 2001 samples or none.
VERDICT_CYCLE = (
    ("ratio", 1.10, 1.25),
    ("ratio", 1.80, 1.95),
    ("ratio", 1.10, 1.25),
    ("ratio", 1.80, 1.95),
    ("ratio", 1.10, 1.25),
    ("zero_field", 1.10, 1.25),
    ("ratio", 1.80, 1.95),
    ("eta_zero", None, None),
    ("omega_zero", None, None),
    ("eta_omega_zero", None, None),
)

# Classes for pointwise: (command, state family, coupling family, --phase).
# Two in ten are refusals: a state outside positivity (exit 1) and a
# malformed --state (exit 2).
POINTWISE_CYCLE = (
    ("evolve", "bell", "normal", False),
    ("spectrum", None, "large", False),
    ("evolve", "generic", "eta_small", False),
    ("spectrum", None, "zero_field", True),
    ("evolve", "generic", "zero_field", True),
    ("refuse_positivity", None, "normal", False),
    ("spectrum", None, "eta_zero", False),
    ("evolve", "bell_file", "large", True),
    ("refuse_malformed", None, "normal", False),
    ("evolve", "generic", "normal", False),
)

CYCLES = {
    "trajectory": TRAJECTORY_CYCLE,
    "verdict": VERDICT_CYCLE,
    "referee": ((),),
    "pointwise": POINTWISE_CYCLE,
}


@dataclass
class Request:
    """One CLI invocation with what its check needs."""

    index: int
    kind: str
    argv: list[str]
    expect: int
    units: int
    spec: dict = field(default_factory=dict)
    group: str = ""


def cycle_length(workload: str) -> int:
    return len(CYCLES[workload])


def _group(workload: str, cls: tuple) -> str:
    """Cost group of a class: requests of one group do the same amount of work."""
    if workload == "trajectory":
        return f"{cls[0]}-{cls[2]}"
    return f"{cls[0]}-{cls[1]}" if cls else workload


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


def _num(x: float) -> str:
    return repr(float(x))


def _coupling_argv(p: dict) -> list[str]:
    # --flag=value: argparse takes a separate "-1e-10" for an option, not a number.
    return [f"--{key}={_num(p[key])}" for key in ("jx", "jy", "jz", "field")]


def _sign(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0))


def _write_state(workdir: Path, k: int, obj) -> str:
    path = workdir / f"state_{k}.json"
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj), encoding="utf-8")
    return f"file:{path}"


def _generic_state(rng: random.Random) -> list[float]:
    """An X state with |s1| or |s2| >= 0.05 (clearly not Bell-diagonal) and |b - c| >= 0.05."""
    while True:
        pops = [rng.random() + 1e-3 for _ in range(4)]
        total = sum(pops)
        a, b, c, d = (x / total for x in pops)
        if max(abs(a + b - c - d), abs(a - b + c - d)) < 0.05 or abs(b - c) < 0.05:
            continue
        z = rng.uniform(0.0, 0.95) * math.sqrt(b * c)
        w = rng.uniform(0.0, 0.95) * math.sqrt(a * d)
        return [a, b, c, d, z, w]


# Spellings of a Bell-diagonal state.  The oscillating ones have c1 != c2,
# so their fidelity dips whenever the field is nonzero.
BELL_ANY = ("bell_diag", "phi_plus_mix", "psi_plus_mix", "werner", "bloch_file")
BELL_OSCILLATING = ("bell_diag", "phi_plus_mix", "bloch_file")
BELL_FILES = ("bloch_file", "preset_file")


def _bell_state(rng: random.Random, workdir: Path, k: int, forms: tuple[str, ...]) -> tuple[str, list[float]]:
    """A Bell-diagonal state in one of the CLI's spellings, with its abcdzw.

    Correlators are drawn with c1 + c2 >= 0 and c1 - c2 > 0, so the stored
    coherence magnitudes are the state asked for.
    """
    form = rng.choice(forms)
    if form == "phi_plus_mix":
        p = rng.uniform(0.05, 1.0)
        return f"phi_plus_mix:{_num(p)}", [(1 + p) / 4, (1 - p) / 4, (1 - p) / 4, (1 + p) / 4, 0.0, p / 2]
    if form == "psi_plus_mix":
        p = rng.uniform(0.05, 1.0)
        return f"psi_plus_mix:{_num(p)}", [(1 - p) / 4, (1 + p) / 4, (1 + p) / 4, (1 - p) / 4, p / 2, 0.0]
    if form == "werner":
        x = rng.uniform(-1.0, 1.0)
        return f"werner:{_num(x)}", [(1 + x) / 6, (2 - x) / 6, (2 - x) / 6, (1 + x) / 6, abs(2 * x - 1) / 6, 0.0]
    c3 = rng.uniform(-0.9, 0.9)
    z = rng.uniform(0.0, 0.95) * (1.0 - c3) / 4.0
    w = rng.uniform(0.1, 0.95) * (1.0 + c3) / 4.0
    c1, c2 = 2.0 * (z + w), 2.0 * (z - w)
    a, b = (1.0 + c3) / 4.0, (1.0 - c3) / 4.0
    x = [a, b, b, a, abs(c1 + c2) / 4.0, abs(c1 - c2) / 4.0]
    if form == "bell_diag":
        return f"bell_diag:{_num(c1)},{_num(c2)},{_num(c3)}", x
    if form == "bloch_file":
        return _write_state(workdir, k, {"bloch": [0.0, 0.0, c1, c2, c3]}), x
    return _write_state(workdir, k, {"preset": {"name": "bell_diagonal", "args": [c1, c2, c3]}}), x


def _couplings(rng: random.Random, family: str) -> dict:
    jx, jy, jz = (rng.uniform(-2.0, 2.0) for _ in range(3))
    if family == "normal":
        return {"jx": jx, "jy": jy, "jz": jz, "field": _sign(rng) * rng.uniform(0.2, 2.0)}
    if family == "large":
        scale = 10.0 ** rng.uniform(1.0, 3.0)
        return {"jx": jx * scale, "jy": jy * scale, "jz": jz * scale, "field": _sign(rng) * rng.uniform(0.2, 2.0) * scale}
    if family == "zero_field":
        return {"jx": jx, "jy": jy, "jz": jz, "field": 0.0}
    if family == "eta_zero":
        return {"jx": jx, "jy": jx, "jz": jz, "field": 0.0}
    if family == "eta_small":
        return {"jx": jx, "jy": jx, "jz": jz, "field": _sign(rng) * 10.0 ** rng.uniform(-12.0, -8.0)}
    raise ValueError(family)


def _time(rng: random.Random, p: dict) -> float:
    """log-uniform over decades from 1e-3, capped so that t * |H| <= TH_MAX."""
    top = min(1e3, ref.TH_MAX / max(ref.h_norm(**p), 1e-300))
    return 10.0 ** rng.uniform(-3.0, math.log10(top))


def make_request(workload: str, seed: int, k: int, workdir: Path) -> Request:
    """Request k of a run; writes any state file it needs into workdir."""
    cls = CYCLES[workload][k % cycle_length(workload)]
    req = _MAKERS[workload](_rng(workload, seed, k), cls, k, seed, workdir)
    req.group = _group(workload, cls)
    return req


def _make_trajectory(rng, cls, k, seed, workdir) -> Request:
    command, fmt, steps, family, explicit = cls
    p = _couplings(rng, "normal")
    if family == "bell":
        state_arg, x = _bell_state(rng, workdir, k, BELL_OSCILLATING if command == "period" else BELL_ANY)
    else:
        x = _generic_state(rng)
        state_arg = _write_state(workdir, k, {"abcdzw": x})
    argv = [command, *_coupling_argv(p), "--state", state_arg, "--steps", str(steps)]
    eta = math.hypot(p["field"], (p["jx"] - p["jy"]) / 2.0)
    t_max = 3.0 * math.pi / eta
    if explicit:
        t_max = rng.uniform(5.0, 40.0)
        argv.append(f"--t-max={_num(t_max)}")
    if fmt == "json":
        argv += ["--format", "json"]
    spec = {"p": p, "x": x, "bell": family == "bell", "steps": steps, "t_max": t_max,
            "format": fmt, "eta": eta, "spot_seed": rng.getrandbits(32)}
    return Request(k, command, argv, 0, steps, spec)


def _verdict_couplings(rng: random.Random, cls) -> dict:
    name, lo, hi = cls
    jz = rng.uniform(-2.0, 2.0)
    if name == "eta_zero":
        j = _sign(rng) * rng.uniform(0.3, 1.5)
        return {"jx": j, "jy": j, "jz": jz, "field": 0.0}
    if name == "omega_zero":
        j = _sign(rng) * rng.uniform(0.3, 1.5)
        return {"jx": j, "jy": -j, "jz": jz, "field": _sign(rng) * rng.uniform(0.3, 1.5)}
    if name == "eta_omega_zero":
        return {"jx": 0.0, "jy": 0.0, "jz": jz, "field": 0.0}
    eta = rng.uniform(0.3, 1.5)
    omega = _sign(rng) * rng.uniform(lo, hi) * eta
    if name == "zero_field":
        field_, delta = 0.0, _sign(rng) * eta
    else:
        phi = rng.uniform(0.2, math.pi / 2 - 0.2)
        field_, delta = _sign(rng) * eta * math.cos(phi), _sign(rng) * eta * math.sin(phi)
    return {"jx": omega + delta, "jy": omega - delta, "jz": jz, "field": field_}


def _make_verdict(rng, cls, k, seed, workdir) -> Request:
    p = _verdict_couplings(rng, cls)
    h = ref.hamiltonian(**p)
    stationary = cls[0] == "eta_omega_zero"
    while True:
        x = _generic_state(rng)
        defect = ref.commutator_norm(h, ref.x_matrix(*x))
        # Draws sit clearly on one side: exactly stationary, or far from it.
        if (defect <= 1e-13) if stationary else (defect >= 1e-2):
            break
    argv = ["classify", *_coupling_argv(p), "--state", _write_state(workdir, k, {"abcdzw": x})]
    return Request(k, "classify", argv, 0, 1, {"stationary": stationary})


def _make_referee(rng, cls, k, seed, workdir) -> Request:
    vseed = seed * 1_000_003 + k
    argv = ["validate", "--cases", str(VALIDATE_CASES), "--seed", str(vseed)]
    return Request(k, "validate", argv, 0, VALIDATE_CASES, {"seed": vseed})


_MALFORMED = ("werner", "werner:abc", "bell_diag:0.1,0.2", "nosuch:0.5", "bad_json", "bad_schema")


def _make_pointwise(rng, cls, k, seed, workdir) -> Request:
    command, family, coupling, phase = cls
    p = _couplings(rng, coupling)
    if command == "refuse_positivity":
        if rng.random() < 0.5:
            a, b, c, d, z, w = _generic_state(rng)
            z = math.sqrt(b * c) * rng.uniform(1.5, 3.0)
            state_arg = _write_state(workdir, k, {"abcdzw": [a, b, c, d, z, w]})
        else:
            state_arg = f"bell_diag:{_num(rng.uniform(0.7, 1.0))},{_num(rng.uniform(0.7, 1.0))},{_num(rng.uniform(0.7, 1.0))}"
        argv = ["evolve", *_coupling_argv(p), "--state", state_arg, f"--t={_num(_time(rng, p))}"]
        return Request(k, command, argv, 1, 0)
    if command == "refuse_malformed":
        bad = rng.choice(_MALFORMED)
        if bad == "bad_json":
            bad = _write_state(workdir, k, '{"abcdzw": [0.25, 0.25,')
        elif bad == "bad_schema":
            bad = _write_state(workdir, k, {"abcdzw": [0.5, 0.5]})
        argv = ["evolve", *_coupling_argv(p), "--state", bad, f"--t={_num(_time(rng, p))}"]
        return Request(k, command, argv, 2, 0)
    t = _time(rng, p)
    spec = {"p": p, "t": t, "phase": phase}
    argv = [command, *_coupling_argv(p), f"--t={_num(t)}"]
    if command == "evolve":
        if family == "generic":
            spec["x"] = _generic_state(rng)
            state_arg = _write_state(workdir, k, {"abcdzw": spec["x"]})
        else:
            state_arg, spec["x"] = _bell_state(rng, workdir, k, BELL_FILES if family == "bell_file" else BELL_ANY)
        argv += ["--state", state_arg]
    if phase:
        argv.append("--phase")
    return Request(k, command, argv, 0, 1, spec)


_MAKERS = {
    "trajectory": _make_trajectory,
    "verdict": _make_verdict,
    "referee": _make_referee,
    "pointwise": _make_pointwise,
}


# ---------------------------------------------------------------- checks


def check(workload: str, req: Request, code: int, out: str) -> str | None:
    """None when the output is correct, else the reason it is not."""
    if code != req.expect:
        return f"exit code {code}, expected {req.expect}"
    if req.expect != 0:
        return None if out == "" else "refused request wrote to stdout"
    try:
        return _CHECKERS[req.kind](req, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"


def _close(got, want, tol: float = ref.ABS_TOL) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want)) <= tol))


def _parse_trajectory(req: Request, out: str) -> dict[str, np.ndarray]:
    if req.spec["format"] == "json":
        obj = json.loads(out)
        cols = {name: obj[name] for name in ("times", "f_numeric", "f_closed", "purity", "c1_minus_c2")}
        cols["t"] = cols.pop("times")
        return cols
    lines = out.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("CSV header or trailing newline missing")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    if any(len(row) != 5 for row in rows):
        raise ValueError("CSV row without five fields")
    names = CSV_HEADER.split(",")
    cols = {name: [row[i] for row in rows] for i, name in enumerate(names)}
    closed = cols["f_closed"]
    cols["f_closed"] = None if all(v == "" for v in closed) else closed
    return cols


def _check_scan(req: Request, out: str) -> str | None:
    spec = req.spec
    cols = _parse_trajectory(req, out)
    times = np.asarray(cols["t"], dtype=float)
    if len(times) != spec["steps"]:
        return f"{len(times)} rows, expected {spec['steps']}"
    want_t = np.linspace(0.0, spec["t_max"], spec["steps"])
    if not _close(times, want_t, 1e-12 * spec["t_max"]):
        return "times differ from the uniform grid"
    if spec["bell"] != (cols["f_closed"] is not None):
        return "f_closed present" if cols["f_closed"] is not None else "f_closed missing for a Bell-diagonal state"
    rng = random.Random(spec["spot_seed"])
    rows = sorted({0, spec["steps"] - 1, *(rng.randrange(spec["steps"]) for _ in range(SPOT_ROWS - 2))})
    p = spec["p"]
    want = ref.trajectory_columns(ref.hamiltonian(**p), ref.x_matrix(*spec["x"]), times[rows])
    for name in ("f_numeric", "purity", "c1_minus_c2"):
        got = np.asarray([cols[name][i] for i in rows], dtype=float)
        if not _close(got, want[name]):
            return f"{name} off the reference at a spot row"
    if spec["bell"]:
        got = np.asarray([cols["f_closed"][i] for i in rows], dtype=float)
        if not _close(got, want["f_numeric"]):
            return "f_closed off the reference at a spot row"
    return None


def _check_period(req: Request, out: str) -> str | None:
    spec = req.spec
    obj = json.loads(out)
    if obj["steps"] != spec["steps"] or not math.isclose(obj["t_max"], spec["t_max"], rel_tol=1e-12):
        return "grid echo differs from the request"
    if not math.isclose(obj["nominal_period"], math.pi / spec["eta"], rel_tol=1e-12):
        return "nominal_period differs from pi / eta"
    times = np.linspace(0.0, spec["t_max"], spec["steps"])
    f = ref.trajectory_columns(ref.hamiltonian(**spec["p"]), ref.x_matrix(*spec["x"]), times)["f_numeric"]
    detected = obj["detected_period"]
    if float(np.max(1.0 - f)) < 1e-10:
        return None if detected is None else "period reported for a flat trace"
    if detected is None or not 0.0 < detected <= spec["t_max"]:
        return f"detected_period {detected!r} outside (0, t_max]"
    if spec["bell"] and not math.isclose(detected, math.pi / spec["eta"], rel_tol=1e-3):
        return "single-mode period differs from pi / eta"
    return None


def _check_classify(req: Request, out: str) -> str | None:
    # Only stationary versus not: finer kinds (periodic, quasi-periodic) stay valid.
    kind = json.loads(out)["kind"]
    if (kind == "stationary") != req.spec["stationary"]:
        return f"verdict {kind!r}, reference says {'stationary' if req.spec['stationary'] else 'not stationary'}"
    return None


def _check_validate(req: Request, out: str) -> str | None:
    lines = out.rstrip("\n").split("\n")
    if lines[0] != f"validation report (seed={req.spec['seed']}, cases={VALIDATE_CASES})":
        return "report header differs from the request"
    return None if lines[-1] == "result: PASS" else f"last line {lines[-1]!r}"


def _cmatrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _reference_propagator(spec: dict) -> np.ndarray:
    p = spec["p"]
    u = ref.propagators(ref.hamiltonian(**p), [spec["t"]])[0]
    # Without --phase the CLI drops the scalar exp(-i jz t / 2).
    return u if spec["phase"] else u * np.exp(0.5j * p["jz"] * spec["t"])


def _check_propagator(obj: dict, spec: dict) -> str | None:
    block = obj["propagator"]
    if block["global_phase_included"] is not spec["phase"] or block["t"] != spec["t"]:
        return "propagator flags differ from the request"
    if not _close(_cmatrix(block["matrix"]), _reference_propagator(spec)):
        return "propagator off the reference"
    return None


def _check_evolve(req: Request, out: str) -> str | None:
    spec = req.spec
    obj = json.loads(out)
    rho0 = ref.x_matrix(*spec["x"])
    rho = ref.evolve(ref.hamiltonian(**spec["p"]), rho0, [spec["t"]])[0]
    if not _close(_cmatrix(obj["density"]), rho):
        return "density matrix off the reference"
    if not _close(obj["purity"], np.trace(rho0 @ rho0).real):
        return "purity off the reference"
    bloch = obj["bloch"]
    for name, op in (("s1", ref.ZI), ("s2", ref.IZ), ("c1", ref.XX), ("c2", ref.YY), ("c3", ref.ZZ)):
        if not _close(bloch[name], np.trace(op @ rho).real):
            return f"bloch {name} off the reference"
    return _check_propagator(obj, spec)


def _check_spectrum(req: Request, out: str) -> str | None:
    spec = req.spec
    obj = json.loads(out)
    h = ref.hamiltonian(**spec["p"])
    scale = max(1.0, ref.h_norm(**spec["p"]))
    energies = np.asarray(obj["energies"], dtype=float)
    if not _close(np.sort(energies), np.linalg.eigvalsh(h), ref.ABS_TOL * scale):
        return "energies off the reference"
    for e, column in zip(energies, obj["eigenvectors"]):
        v = np.array([complex(re, im) for re, im in column])
        if not (_close(np.linalg.norm(v), 1.0) and _close(h @ v, e * v, ref.ABS_TOL * scale)):
            return "eigenvector fails H v = E v"
    return _check_propagator(obj, spec)


_CHECKERS = {
    "scan": _check_scan,
    "period": _check_period,
    "classify": _check_classify,
    "validate": _check_validate,
    "evolve": _check_evolve,
    "spectrum": _check_spectrum,
}
