"""Command line front end.

Exit codes: 0 on success, 1 on validation or domain errors, 2 on usage
errors (bad flags, malformed state sources).  Data goes to --out or
stdout, diagnostics to stderr.  Reruns with identical flags and seed are
byte-identical.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys

from . import model, states
from .dynamics import TimeGrid, classify, detect_period, evolve_closed, nominal_period, scan
from .errors import StateFileError, XdynError
from .fidelity import purity
from .validate import run_validation

DEFAULT_STEPS = 5000
DEFAULT_T_MAX = 10.0

# A token argparse should read as a negative number, not as an option.  Its
# own pattern (Python 3.11) misses exponents, so "--field -1e-10" failed.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes "-1e-10" as a value; subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _pair(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def _cmatrix(m) -> list[list[list[float]]]:
    return [[_pair(m[i, j]) for j in range(m.shape[1])] for i in range(m.shape[0])]


def _parse_real(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise StateFileError(f"{where}: expected a real number, got {text!r}") from None


def _load_state_file(path: str) -> states.XState:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise StateFileError(f"--state file: cannot read {path!r}: {exc}") from None
    try:
        obj = json.loads(raw)
    except ValueError as exc:
        raise StateFileError(f"--state file {path!r}: invalid JSON: {exc}") from None
    return states.state_from_json(obj)


def parse_state_arg(text: str) -> states.XState:
    """Resolve the --state grammar.

    Accepted forms: ``bell_diag:c1,c2,c3``, ``phi_plus_mix:p``,
    ``psi_plus_mix:p``, ``werner:x``, ``file:PATH``.
    """
    kind, sep, rest = text.partition(":")
    if not sep:
        raise StateFileError(
            f'--state: expected "kind:args" such as werner:0.5 or file:state.json, got {text!r}'
        )
    if kind == "file":
        return _load_state_file(rest)
    if kind == "bell_diag":
        parts = rest.split(",")
        if len(parts) != 3:
            raise StateFileError(
                f"--state bell_diag: expected three comma-separated reals, got {rest!r}"
            )
        c1, c2, c3 = (_parse_real(part, "--state bell_diag") for part in parts)
        return states.preset_bell_diagonal(c1, c2, c3)
    if kind in ("phi_plus_mix", "psi_plus_mix"):
        p = _parse_real(rest, f"--state {kind}")
        return states.preset_p_mixture("phi_plus" if kind == "phi_plus_mix" else "psi_plus", p)
    if kind == "werner":
        return states.preset_werner(_parse_real(rest, "--state werner"))
    raise StateFileError(
        f"--state: unknown kind {kind!r}; expected bell_diag, phi_plus_mix, "
        "psi_plus_mix, werner, or file"
    )


def _params_from(ns: argparse.Namespace) -> model.CouplingParams:
    return model.CouplingParams(jx=ns.jx, jy=ns.jy, jz=ns.jz, field=ns.field)


def _grid_from(ns: argparse.Namespace, p: model.CouplingParams) -> TimeGrid:
    t_max = ns.t_max
    if t_max is None:
        period = nominal_period(p)
        t_max = 3.0 * period if period is not None else DEFAULT_T_MAX
    return TimeGrid(t_max=t_max, steps=ns.steps)


def _propagator_block(p: model.CouplingParams, t: float, include_phase: bool) -> dict:
    u = model.propagator(p, t, include_global_phase=include_phase)
    return {
        "t": float(t),
        "global_phase_included": u.global_phase_included,
        "mu_plus": _pair(u.mu_plus),
        "mu_minus": _pair(u.mu_minus),
        "delta_entry": _pair(u.delta_entry),
        "matrix": _cmatrix(u.matrix),
    }


def _params_block(p: model.CouplingParams) -> dict:
    f = model.frequencies(p)
    return {
        "jx": p.jx,
        "jy": p.jy,
        "jz": p.jz,
        "field": p.field,
        "eta": f.eta,
        "omega": f.omega,
        "delta": f.delta,
    }


def _cmd_spectrum(ns: argparse.Namespace) -> tuple[str, int]:
    p = _params_from(ns)
    sp = model.spectrum(p)
    payload = {
        "params": _params_block(p),
        "energies": [float(e) for e in sp.energies],
        "eigenvectors": [[_pair(sp.eigenvectors[i, j]) for i in range(4)] for j in range(4)],
        "norms": [float(n) for n in sp.norms],
    }
    if ns.t is not None:
        payload["propagator"] = _propagator_block(p, ns.t, ns.phase)
    return json.dumps(payload, indent=2) + "\n", 0


def _cmd_evolve(ns: argparse.Namespace) -> tuple[str, int]:
    p = _params_from(ns)
    s = parse_state_arg(ns.state)
    rho = evolve_closed(s, p, ns.t)
    v = states.bloch_from_density(rho)
    payload = {
        "params": _params_block(p),
        "t": float(ns.t),
        "density": _cmatrix(rho.matrix),
        "purity": purity(rho),
        "bloch": {"s1": v.s1, "s2": v.s2, "c1": v.c1, "c2": v.c2, "c3": v.c3},
        "propagator": _propagator_block(p, ns.t, ns.phase),
    }
    return json.dumps(payload, indent=2) + "\n", 0


def _trace_columns(trace) -> list:
    """(name, values or None) for each FidelityTrace field, in column order."""
    return [(f.name, getattr(trace, f.name)) for f in dataclasses.fields(trace)]


def _trace_csv(trace) -> str:
    # "%.17g" % x is format(x, ".17g"); an absent column is an empty cell
    cols = [col for _, col in _trace_columns(trace)]
    row = ",".join("" if col is None else "%.17g" for col in cols)
    rows = zip(*(col.tolist() for col in cols if col is not None))
    return "\n".join(["t,f_numeric,f_closed,purity,c1_minus_c2", *(row % r for r in rows)]) + "\n"


def _trace_json(trace) -> str:
    # json.dumps(payload, indent=2), which writes a float (scan's are finite) as float.__repr__
    fields = (
        f'  "{name}": null' if col is None
        else f'  "{name}": [\n    ' + ",\n    ".join(map(float.__repr__, col.tolist())) + "\n  ]"
        for name, col in _trace_columns(trace)
    )
    return "{\n" + ",\n".join(fields) + "\n}\n"


def _cmd_scan(ns: argparse.Namespace) -> tuple[str, int]:
    p = _params_from(ns)
    s = parse_state_arg(ns.state)
    trace = scan(s, p, _grid_from(ns, p))
    text = _trace_csv(trace) if ns.format == "csv" else _trace_json(trace)
    return text, 0


def _cmd_classify(ns: argparse.Namespace) -> tuple[str, int]:
    p = _params_from(ns)
    s = parse_state_arg(ns.state)
    verdict = classify(s, p)
    payload = {"kind": verdict.kind, "reason": verdict.reason, "period": verdict.period}
    return json.dumps(payload, indent=2) + "\n", 0


def _cmd_period(ns: argparse.Namespace) -> tuple[str, int]:
    p = _params_from(ns)
    s = parse_state_arg(ns.state)
    grid = _grid_from(ns, p)
    trace = scan(s, p, grid)
    payload = {
        "t_max": grid.t_max,
        "steps": grid.steps,
        "detected_period": detect_period(trace),
        "nominal_period": nominal_period(p),
    }
    return json.dumps(payload, indent=2) + "\n", 0


def _cmd_validate(ns: argparse.Namespace) -> tuple[str, int]:
    report = run_validation(seed=ns.seed, cases=ns.cases)
    return report.render(), 0 if report.passed else 1


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "evolve": _cmd_evolve,
    "scan": _cmd_scan,
    "classify": _cmd_classify,
    "period": _cmd_period,
    "validate": _cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xdyn",
        description=(
            "Closed-form dynamics of two-qubit X states under anisotropic "
            "Heisenberg exchange with a uniform z field"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coupling = argparse.ArgumentParser(add_help=False)
    for flag, help_text in (
        ("--jx", "x exchange coupling"),
        ("--jy", "y exchange coupling"),
        ("--jz", "z exchange coupling"),
        ("--field", "uniform z field strength"),
    ):
        coupling.add_argument(flag, type=float, required=True, help=help_text)

    state = argparse.ArgumentParser(add_help=False)
    state.add_argument(
        "--state",
        required=True,
        help=(
            "initial state: bell_diag:c1,c2,c3 | phi_plus_mix:p | "
            "psi_plus_mix:p | werner:x | file:PATH"
        ),
    )

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument(
        "--t-max",
        type=float,
        default=None,
        help="scan horizon (default: three nominal periods, or 10 if none)",
    )
    grid.add_argument("--steps", type=int, default=DEFAULT_STEPS, help="grid points, at least 2")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write output here instead of stdout")

    p_spectrum = sub.add_parser("spectrum", parents=[coupling, out], help="energies and eigenvectors")
    p_spectrum.add_argument("--t", type=float, default=None, help="also print the propagator at t")
    p_spectrum.add_argument("--phase", action="store_true", help="include the global phase factor")

    p_evolve = sub.add_parser(
        "evolve", parents=[coupling, state, out], help="evolved density matrix at one time"
    )
    p_evolve.add_argument("--t", type=float, required=True, help="evolution time")
    p_evolve.add_argument("--phase", action="store_true", help="include the global phase factor")

    p_scan = sub.add_parser(
        "scan", parents=[coupling, state, grid, out], help="fidelity trace over a time grid"
    )
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")

    sub.add_parser(
        "classify", parents=[coupling, state, out], help="stationary or periodic verdict"
    )
    sub.add_parser(
        "period", parents=[coupling, state, grid, out], help="detected oscillation period"
    )

    p_val = sub.add_parser("validate", parents=[out], help="oracle checks and formula adjudication")
    p_val.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_val.add_argument("--cases", type=int, default=200, help="draw budget, at least 10")
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        text, code = _HANDLERS[ns.command](ns)
    except StateFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except XdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(text, ns.out)
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe; park stdout on
        # devnull so the interpreter's exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    return code


if __name__ == "__main__":
    sys.exit(main())
