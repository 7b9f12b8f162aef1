"""Command line front end.

Exit codes: 0 on success, 1 on validation or domain errors, 2 on usage
errors (bad flags, malformed state sources, an --out path or a stdout
that cannot be written).  Data goes to --out or stdout, diagnostics to
stderr.  Reruns with identical flags and seed are byte-identical.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from collections.abc import Iterable

from . import model, states
from .dynamics import TimeGrid, _period, classify, detect_period, evolve_closed, scan
from .errors import DomainError, OutputFileError, RangeError, StateFileError, XdynError
from .fidelity import purity
from .validate import run_validation

DEFAULT_STEPS = 5000
DEFAULT_T_MAX = 10.0

# Longest state file read, in characters: 1 MiB of ASCII JSON.  A longer
# one (or an endless one, such as /dev/zero) is refused unread past this.
STATE_FILE_MAX_CHARS = 1 << 20

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
            text = fh.read(STATE_FILE_MAX_CHARS + 1)
        too_long = len(text) > STATE_FILE_MAX_CHARS
        obj = None if too_long else json.loads(text)
    except OSError as exc:
        raise StateFileError(f"--state file: cannot read {path!r}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep to parse
        raise StateFileError(f"--state file {path!r}: invalid JSON: {exc}") from None
    if too_long:
        raise StateFileError(f"--state file {path!r}: longer than {STATE_FILE_MAX_CHARS} characters")
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


def _grid_from(ns: argparse.Namespace, p: model.CouplingParams, period: float | None = None) -> TimeGrid:
    t_max = ns.t_max
    if t_max is None:  # three of the given periods, else three pi/eta, or 10 when eta = 0
        t_max = 3.0 * period if period is not None else _period(3, p.eta) if p.eta else DEFAULT_T_MAX
        if math.isinf(t_max):  # three given periods; _period refuses its own overflow
            raise RangeError(f"the default --t-max, 3 * {period!r}, overflows a float")
    return TimeGrid(t_max=t_max, steps=ns.steps)


def _propagator_block(p: model.CouplingParams, t: float, include_phase: bool) -> dict:
    u = model.propagator(p, t, include_global_phase=include_phase)
    return {
        "t": float(t),
        "global_phase_included": include_phase,
        "mu_plus": _pair(u.mu_plus),
        "mu_minus": _pair(u.mu_plus.conjugate()),
        "delta_entry": _pair(u.delta_entry),
        "matrix": _cmatrix(u.matrix),
    }


def _params_block(p: model.CouplingParams) -> dict:
    return {name: getattr(p, name) for name in ("jx", "jy", "jz", "field", "eta", "omega", "delta")}


def _cmd_spectrum(ns: argparse.Namespace) -> tuple[Iterable[str], int]:
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
    return [json.dumps(payload, indent=2) + "\n"], 0


def _cmd_evolve(ns: argparse.Namespace) -> tuple[Iterable[str], int]:
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
    return [json.dumps(payload, indent=2) + "\n"], 0


def _trace_columns(trace) -> list:
    """(name, values or None) for each FidelityTrace field, in column order."""
    return [(f.name, getattr(trace, f.name)) for f in dataclasses.fields(trace)]


def _trace_csv(trace) -> Iterable[str]:
    # "%.17g" % x for every cell; an absent column is an empty cell.  _text is
    # imported on first use: commands that render no trace skip its digit tables.
    from . import _text

    yield "t,f_numeric,f_closed,purity,c1_minus_c2\n"
    yield from _text.lines([col for _, col in _trace_columns(trace)], False, ",", "\n")
    yield "\n"


def _trace_json(trace) -> Iterable[str]:
    # json.dumps(payload, indent=2), which writes a float (scan's are finite) as float.__repr__
    from . import _text

    for i, (name, col) in enumerate(_trace_columns(trace)):
        yield f'{"," if i else "{"}\n  "{name}": '
        if col is None:
            yield "null"
            continue
        yield "[\n    "
        yield from _text.lines([col], True, "", ",\n    ")
        yield "\n  ]"
    yield "\n}\n"


def _cmd_scan(ns: argparse.Namespace) -> tuple[Iterable[str], int]:
    p = _params_from(ns)
    s = parse_state_arg(ns.state)
    trace = scan(s, p, _grid_from(ns, p))
    return (_trace_csv if ns.format == "csv" else _trace_json)(trace), 0


def _cmd_classify(ns: argparse.Namespace) -> tuple[Iterable[str], int]:
    p = _params_from(ns)
    s = parse_state_arg(ns.state)
    verdict = classify(s, p)
    payload = {"kind": verdict.kind, "reason": verdict.reason, "period": verdict.period}
    if verdict.mode_periods is not None:
        payload["mode_periods"] = verdict.mode_periods
    return [json.dumps(payload, indent=2) + "\n"], 0


def _cmd_period(ns: argparse.Namespace) -> tuple[Iterable[str], int]:
    p = _params_from(ns)
    s = parse_state_arg(ns.state)
    verdict = classify(s, p)
    if verdict.kind == "quasi_periodic":
        eta_period, omega_period = verdict.mode_periods
        raise DomainError(
            f"period: the trace is quasi-periodic: its mode_periods {eta_period!r} (pi/eta) "
            f"and {omega_period!r} (pi/|Omega|) share no common period"
        )
    grid = _grid_from(ns, p, verdict.period)
    payload = {
        "t_max": grid.t_max,
        "steps": grid.steps,
        "detected_period": detect_period(scan(s, p, grid)),
        "nominal_period": verdict.period,
    }
    return [json.dumps(payload, indent=2) + "\n"], 0


def _cmd_validate(ns: argparse.Namespace) -> tuple[Iterable[str], int]:
    report = run_validation(seed=ns.seed, cases=ns.cases)
    return [report.render()], 0 if report.passed else 1


def _arg(flag: str, **kwargs) -> tuple[str, dict]:
    """One argument as (flag, add_argument keywords)."""
    return flag, kwargs


# Argument groups shared by several subcommands, in the order --help lists them.
_COUPLING = tuple(
    _arg(flag, type=float, required=True, help=help_text)
    for flag, help_text in (
        ("--jx", "x exchange coupling"),
        ("--jy", "y exchange coupling"),
        ("--jz", "z exchange coupling"),
        ("--field", "uniform z field strength"),
    )
)
_STATE = (
    _arg(
        "--state",
        required=True,
        help=(
            "initial state: bell_diag:c1,c2,c3 | phi_plus_mix:p | "
            "psi_plus_mix:p | werner:x | file:PATH"
        ),
    ),
)


def _grid(t_max_default: str) -> tuple:
    """--t-max, with its default as the command's help states it, and --steps."""
    return (
        _arg("--t-max", type=float, default=None, help=f"scan horizon (default: {t_max_default})"),
        _arg("--steps", type=int, default=DEFAULT_STEPS, help="grid points, at least 2"),
    )


_OUT = (_arg("--out", default=None, help="write output here instead of stdout"),)
_PHASE = _arg("--phase", action="store_true", help="include the global phase factor")

# Subcommand -> (handler, help text, its arguments: shared groups first, then its own).
_COMMANDS = {
    "spectrum": (
        _cmd_spectrum,
        "energies and eigenvectors",
        _COUPLING + _OUT
        + (_arg("--t", type=float, default=None, help="also print the propagator at t"), _PHASE),
    ),
    "evolve": (
        _cmd_evolve,
        "evolved density matrix at one time",
        _COUPLING + _STATE + _OUT
        + (_arg("--t", type=float, required=True, help="evolution time"), _PHASE),
    ),
    "scan": (
        _cmd_scan,
        "fidelity trace over a time grid",
        _COUPLING + _STATE + _grid("three nominal periods, or 10 if none") + _OUT
        + (_arg("--format", choices=("csv", "json"), default="csv", help="output format"),),
    ),
    "classify": (
        _cmd_classify,
        "stationary, periodic or quasi-periodic verdict",
        _COUPLING + _STATE + _OUT,
    ),
    "period": (
        _cmd_period,
        "detected oscillation period",
        _COUPLING + _STATE + _grid("three of classify's periods; as for scan when stationary") + _OUT,
    ),
    "validate": (
        _cmd_validate,
        "oracle checks and formula adjudication",
        _OUT
        + (
            _arg("--seed", type=int, default=0, help="RNG seed"),
            _arg("--cases", type=int, default=200, help="draw budget, at least 10"),
        ),
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The xdyn parser; when command names a subcommand, only it is built in full.

    Every subcommand is registered either way, so the main parser's usage
    line, help and choice list name all six.  The other five then get
    neither their arguments nor a -h action, since a request for one
    command never enters them.  A parser built for one command parses that
    command's argv, and prints its help and usage, exactly as the full
    parser does.  Without a known command (help, a bogus or a missing one)
    every subcommand is built in full.
    """
    parser = _Parser(
        prog="xdyn",
        description=(
            "Closed-form dynamics of two-qubit X states under anisotropic "
            "Heisenberg exchange with a uniform z field"
        ),
    )
    # prog given, argparse need not format the main usage line to derive it
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    build_all = command not in _COMMANDS
    for name, (_, help_text, arguments) in _COMMANDS.items():
        built = build_all or name == command
        sub_parser = sub.add_parser(name, help=help_text, add_help=built)
        if built:
            for flag, kwargs in arguments:
                sub_parser.add_argument(flag, **kwargs)
    return parser


def _park_stdout() -> None:
    # Point stdout at devnull, so the interpreter's exit flush of what it
    # still holds cannot raise again.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _is_stdout(path: str) -> bool:
    """Whether path is the file stdout writes to, as /dev/stdout is; False if either has none."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):
        return False


def _emit(parts: Iterable[str], out_path: str | None) -> None:
    """Write each part as it comes to --out, or to stdout when there is none.

    A path that cannot be opened, or a write that fails (a full disk, a pipe
    whose reader left), is an OutputFileError.  A closed pipe on stdout,
    /dev/stdout as --out included, is left to main.
    """
    try:
        if out_path is None:
            sys.stdout.writelines(parts)
            sys.stdout.flush()  # a failed write surfaces here, not at exit
            return
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(parts)
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and (out_path is None or _is_stdout(out_path)):
            raise
        if out_path is None:
            _park_stdout()
            raise OutputFileError(f"cannot write stdout: {exc}") from None
        raise OutputFileError(f"--out: cannot write {out_path!r}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The main parser takes no option values, so its first non-option token
    # is the subcommand argparse dispatches to.
    command = next((token for token in argv if not token.startswith("-")), None)
    try:
        ns = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        parts, code = _COMMANDS[ns.command][0](ns)
        _emit(parts, ns.out)
    except (StateFileError, OutputFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except XdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        _park_stdout()  # downstream consumer (head, etc.) closed the pipe
    return code


if __name__ == "__main__":
    sys.exit(main())
