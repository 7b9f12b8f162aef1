"""Seeded random argv run through the xdyn CLI and checked against invariants.

Run from anywhere, with the package on the import path:

    PYTHONPATH=src python3 -W error tests/argv_sweep.py

Each argv names one of the six commands (now and then a bogus one) with
values drawn from ordinary numbers, log-uniform magnitudes of either sign
from 1e-320 to 1e308, the tokens nan, inf, -0, 5e-324, DBL_MAX and 1e999,
and garbage (two argv in five are tame: every required option, ordinary
values); every --state kind is drawn, a file: state names the entries of
tests/data and a missing file in turn, and one argv in five names an --out.  Each runs once through
``xdyn.cli.main`` in this process, from the root of the repository, with
warnings raised as errors, and must:

- exit 0, 1 or 2, with no exception escaping main and no Traceback on stderr;
- on an error, leave stdout empty and write no --out file;
- on success, hold no whole-word nan or inf in its payload.

Every violation is printed with its argv; the exit code is 1 if there is any.
"""
import contextlib
import io
import itertools
import os
import random
import re
import shlex
import sys
import tempfile
import warnings
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = Path("tests") / "data"

DBL_MAX = "1.7976931348623157e308"
EDGES = ("0", "-0", "5e-324", "-5e-324", DBL_MAX, "-" + DBL_MAX)  # finite doubles at the edges
SPECIAL = EDGES + ("nan", "-nan", "inf", "-inf", "1e999", "-1e999")
GARBAGE = ("", "x", "-", "--", "1e", "0x10", "1,2", "nan,1", "--jx", "1_0", "é")
# Counts.  A --steps beyond 1000000 is refused, but validate runs any --cases
# of at least 10, so its counts stay small.
CASES = ("0", "3", "-1", "10", "11", "30", "2.5", "1e3", "x")
STEPS = CASES + ("1", "2", "1000001", "9" * 30)
TAME_CASES = ("10", "11", "30")
TAME_STEPS = ("2", "3", "4", "10", "30", "100")
STATE_KINDS = ("bell_diag", "phi_plus_mix", "psi_plus_mix", "werner", "file")
STATE_SOURCES = tuple(sorted(str(DATA / entry) for entry in os.listdir(ROOT / DATA))) + (
    str(DATA / "missing.json"),
)

COUPLING = ("--jx", "--jy", "--jz", "--field")
COMMANDS = ("spectrum", "evolve", "scan", "classify", "period", "validate")

# A whole word nan or inf, as CSV ("%.17g") or JSON (NaN, Infinity) would print it.
NAN_OR_INF = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

COUNT, SEED = 20000, 1  # run as a script; tier-1 sweeps fewer argv of another seed


def _number(r: random.Random, tame: bool) -> str:
    u = r.random()
    if tame:  # a finite float, and one in five of them at an edge of the doubles
        return r.choice(EDGES) if u < 0.2 else repr(round(r.uniform(-2.0, 2.0), 3))
    if u < 0.25:
        return r.choice(SPECIAL)
    if u < 0.3:
        return r.choice(GARBAGE)
    if u < 0.65:
        return repr(round(r.uniform(-2.0, 2.0), 3))
    return repr(r.choice((-1.0, 1.0)) * 10.0 ** r.uniform(-320.0, 308.0))


def _unit(r: random.Random, tame: bool) -> str:
    # a state parameter: mostly inside [-1, 1], where the presets are defined
    return repr(round(r.uniform(-1.0, 1.0), 3)) if tame or r.random() < 0.7 else _number(r, tame)


def _state(r: random.Random, tame: bool, sources: Iterator[str]) -> str:
    if not tame and r.random() < 0.05:
        return r.choice(("nonsense:1", "werner", "", "bell_diag:0.1,0.2"))
    kind = r.choice(STATE_KINDS)
    if kind == "file":
        return "file:" + next(sources)
    if kind == "bell_diag":
        return "bell_diag:" + ",".join(_unit(r, tame) for _ in range(3))
    return f"{kind}:{_unit(r, tame)}"


def _options(r: random.Random, command: str, tame: bool, sources: Iterator[str]) -> list[tuple[str, str | None]]:
    """(flag, value or None for a switch) for one command's options.

    A tame draw gives every required option an ordinary value, so that
    success paths are reached often; a wild one leaves options out and
    draws the special values and garbage.
    """
    keep = 1.0 if tame else 0.95
    opts = [] if command == "validate" else [(flag, _number(r, tame)) for flag in COUPLING if r.random() < keep]
    if command in ("evolve", "scan", "classify", "period") and r.random() < keep:
        opts.append(("--state", _state(r, tame, sources)))
    if command in ("spectrum", "evolve") and r.random() < (0.5 if command == "spectrum" else keep):
        opts.append(("--t", _number(r, tame)))
    if command in ("spectrum", "evolve") and r.random() < 0.3:
        opts.append(("--phase", None))
    if command in ("scan", "period"):
        if r.random() < 0.5:
            opts.append(("--t-max", _number(r, tame)))
        if r.random() < 0.8:
            opts.append(("--steps", r.choice(TAME_STEPS if tame else STEPS)))
    if command == "scan" and r.random() < 0.4:
        opts.append(("--format", r.choice(("csv", "json") if tame else ("csv", "json", "xml"))))
    if command == "validate":
        if r.random() < 0.7:
            opts.append(("--seed", r.choice(CASES + (str(r.randrange(1 << 32)), str(1 << 64)))))
        if r.random() < 0.95:  # the default of 200 cases costs more than any other argv
            opts.append(("--cases", r.choice(TAME_CASES if tame else CASES)))
    return opts


def draw(r: random.Random, sources: Iterator[str], out_path: str) -> tuple[list[str], str | None]:
    """One argv, and the --out file it names (None when it names none).

    A file: state takes the next of sources, so that every source is drawn
    however the seed falls.
    """
    command = r.choice(COMMANDS) if r.random() < 0.97 else r.choice(("bogus", "-h", "--help"))
    tame = r.random() < 0.4
    opts = _options(r, command, tame, sources)
    out = None
    if r.random() < 0.2:
        out = out_path if r.random() < 0.9 else r.choice(("/nonexistent/out.txt", str(DATA)))
        opts.append(("--out", out))
    r.shuffle(opts)
    argv = [command]
    for flag, value in opts:
        if value is None:
            argv.append(flag)
        elif r.random() < 0.2:
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    if not tame and r.random() < 0.03:
        argv.insert(r.randrange(len(argv) + 1), r.choice(GARBAGE))
    return argv, out if out == out_path else None


def run(main, argv: list[str], out_path: str | None) -> list[str]:
    """The invariants one in-process call of main breaks, as messages."""
    out, err = io.StringIO(), io.StringIO()
    problems = []
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(list(argv))
        except (Exception, SystemExit) as exc:
            problems.append(f"exception escaped main: {type(exc).__name__}: {exc}")
            code = None
    stdout, stderr = out.getvalue(), err.getvalue()
    wrote = out_path is not None and os.path.exists(out_path)
    payload = Path(out_path).read_text(encoding="utf-8") if wrote else stdout
    if wrote:
        os.unlink(out_path)
    if code not in (0, 1, 2, None):
        problems.append(f"exit code {code!r}")
    if "Traceback" in stderr:
        problems.append("Traceback on stderr")
    if code != 0:
        if stdout:
            problems.append("stdout written on an error")
        if wrote:
            problems.append("--out file written on an error")
    elif found := NAN_OR_INF.search(payload):
        problems.append(f"nan or inf in the payload: {found.group()!r}")
    return problems


def sweep(count: int, seed: int, workdir: str) -> list[str]:
    """Draw count argv from seed and run each; one line per broken invariant.

    State files are named relative to the repository root, so this changes
    the working directory to it.
    """
    os.chdir(ROOT)
    from xdyn.cli import main

    r = random.Random(seed)
    sources = itertools.cycle(STATE_SOURCES)
    out_path = os.path.join(workdir, "out.txt")
    violations = []
    for _ in range(count):
        argv, out = draw(r, sources, out_path)
        violations += [f"{problem}: xdyn {shlex.join(argv)}" for problem in run(main, argv, out)]
    return violations


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        violations = sweep(COUNT, SEED, workdir)
    for line in violations:
        print(line)
    print(f"{COUNT} argv from seed {SEED}: {len(violations)} violations")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
