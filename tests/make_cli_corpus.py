"""Regenerate tests/data/cli_corpus/ from the xdyn on the import path.

Run from the root of the repository:

    PYTHONPATH=src python3 tests/make_cli_corpus.py

Each case runs once through ``xdyn.cli.main`` in this process, with
COLUMNS pinned so that argparse wraps its help at a fixed width.  The
corpus records the exit code and the exact stdout and stderr of every
case (``<name>.out`` and ``<name>.err``, absent when empty) together with
the Python version, since argparse's help and usage text can change
between versions.  ``tests/test_cli_corpus.py`` replays the cases.
"""
import contextlib
import io
import json
import os
import sys
import traceback
import warnings
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "data" / "cli_corpus"
COLUMNS = "80"

ISO = ["--jx", "1", "--jy", "1", "--jz", "1", "--field", "0"]
ANISO = ["--jx", "1", "--jy", "0.4", "--jz", "0.5", "--field", "0.8"]
TWO_MODE = ["--jx", "1.3", "--jy", "0.4", "--jz", "0.5", "--field", "0.7",
            "--state", "file:tests/data/two_mode_state.json"]
# couplings whose eta overflows a float, for argv with a second fault
OVERFLOW = ["--jx", "1e308", "--jy", "-1e308", "--jz", "0", "--field", "1"]
DBL_MAX_T_MAX = ["--jx", "0.5", "--jy", "0.5", "--jz", "0.5", "--field", "0.5", "--state", "werner:0.3",
                 "--t-max", "1.7976931348623157e308", "--steps", "4"]
COMMANDS = ("spectrum", "evolve", "scan", "classify", "period", "validate")

CASES = {
    # the main parser
    "main_help": ["--help"],
    "main_help_before_command": ["-h", "classify"],
    "no_arguments": [],
    "invalid_choice": ["bogus"],
    "negative_number_as_command": ["-1", "spectrum"],
    "double_dash_before_command": ["--", "spectrum", *ISO],
    # every subcommand's help
    **{f"{cmd}_help": [cmd, "--help"] for cmd in COMMANDS},
    # usage errors after a valid command
    "missing_state": ["classify", *ISO],
    "missing_couplings": ["evolve", "--state", "werner:0.5", "--t", "1"],
    "evolve_missing_t": ["evolve", *ISO, "--state", "werner:0.5"],
    "unrecognized_flag": ["spectrum", *ISO, "--bogus", "1"],
    "other_commands_flag": ["classify", *ISO, "--state", "werner:0.5", "--steps", "10"],
    "extra_positional": ["spectrum", *ISO, "classify"],
    "double_dash_after_command": ["spectrum", "--", *ISO],
    "bad_float": ["spectrum", "--jx", "one", "--jy", "1", "--jz", "1", "--field", "0"],
    "bad_int": ["validate", "--cases", "2.5"],
    "format_xml": ["scan", *ISO, "--state", "werner:0.5", "--format", "xml"],
    "non_numeric_dash_value": ["spectrum", "--jx", "1", "--jy", "0", "--jz", "0", "--field", "-e5"],
    # values that look like options
    "field_negative_exponent": ["spectrum", "--jx", "1", "--jy", "0", "--jz", "0", "--field", "-1e-10"],
    "field_negative_joined": ["spectrum", "--jx", "1", "--jy", "0", "--jz", "0", "--field=-1e-10"],
    "abbreviated_flags": ["classify", "--jx", "1", "--jy", "1", "--jz", "0.5", "--fi", "1.5", "--st", "werner:0.8"],
    "repeated_flag_last_wins": ["classify", *ISO, "--field", "1.5", "--state", "werner:0.8"],
    # one small success per command, and then some
    "spectrum": ["spectrum", *ISO],
    "spectrum_propagator_phase": ["spectrum", *ANISO, "--t", "1.3", "--phase"],
    "evolve": ["evolve", *ANISO, "--state", "phi_plus_mix:0.7", "--t", "1.1"],
    "scan_csv": ["scan", *ANISO, "--state", "bell_diag:0.3,-0.2,0.1", "--t-max", "2", "--steps", "5"],
    "scan_json_generic": ["scan", *TWO_MODE, "--t-max", "2", "--steps", "4", "--format", "json"],
    "classify": ["classify", "--jx", "1", "--jy", "1", "--jz", "0.5", "--field", "1.5", "--state", "werner:0.8"],
    "classify_commuting": ["classify", "--jx", "1.3", "--jy", "0.4", "--jz", "0.5", "--field", "0.7",
                           "--state", "file:tests/data/commuting_state.json"],
    "classify_two_mode": ["classify", *TWO_MODE],
    "classify_maximally_mixed": ["classify", *ANISO, "--state", "bell_diag:0,0,0"],
    "classify_zero_field": ["classify", "--jx", "1", "--jy", "0.4", "--jz", "0.5", "--field", "0",
                            "--state", "bell_diag:0.3,-0.2,0.1"],
    "classify_bell_periodic": ["classify", *ANISO, "--state", "bell_diag:0.3,-0.2,0.1"],
    "period": ["period", "--jx", "1", "--jy", "1", "--jz", "0.5", "--field", "0.5", "--state", "phi_plus_mix:0.7"],
    "period_abbreviated_t_max": ["period", "--jx", "1", "--jy", "1", "--jz", "0.5", "--field", "0.5",
                                 "--state", "phi_plus_mix:0.7", "--t", "20", "--steps", "800"],
    "period_two_mode": ["period", *TWO_MODE],
    # one live Omega mode (period pi/|Omega|), and two modes with |Omega|/eta = 1/2
    # (period 2 pi/eta): the default window holds three of classify's periods
    "period_omega_mode": ["period", "--jx", "1.3", "--jy", "0.4", "--jz", "0.5", "--field", "0.7",
                          "--state", "file:tests/data/omega_mode_state.json"],
    "period_two_mode_q2": ["period", "--jx", "1", "--jy", "0", "--jz", "0.5", "--field", "0.8660254037844386",
                           "--state", "file:tests/data/two_mode_state.json"],
    # a Bell-diagonal state whose eta mode a field of 1e-9 moves by less than
    # STATIONARY_TOL: stationary, and period keeps the window 3 pi/eta
    "classify_bell_weak_field": ["classify", "--jx=1", "--jy=0", "--jz=0", "--field=1e-9",
                                 "--state", "bell_diag:0.3,-0.2,0.1"],
    "period_bell_weak_field": ["period", "--jx=1", "--jy=0", "--jz=0", "--field=1e-9",
                               "--state", "bell_diag:0.3,-0.2,0.1"],
    "period_stationary_werner": ["period", "--jx", "1", "--jy", "1", "--jz", "0.5", "--field", "1.5",
                                 "--state", "werner:0.8"],
    "validate": ["validate", "--seed", "5", "--cases", "10"],
    # refusals
    "evolve_outside_positivity": ["evolve", *ISO, "--state", "bell_diag:0.9,0.9,0.9", "--t", "1"],
    "state_unknown_kind": ["evolve", *ISO, "--state", "nonsense:1", "--t", "1"],
    "state_file_missing": ["classify", *ISO, "--state", "file:tests/data/missing.json"],
    "state_file_negative_coherence": ["classify", *ISO, "--state", "file:tests/data/negative_coherence_state.json"],
    "state_file_not_utf8": ["classify", *ISO, "--state", "file:tests/data/utf16_state.json"],
    "state_file_deeply_nested": ["classify", *ISO, "--state", "file:tests/data/deeply_nested_state.json"],
    "state_file_huge_int": ["classify", *ISO, "--state", "file:tests/data/huge_int_state.json"],
    "state_file_endless": ["classify", *ISO, "--state", "file:/dev/zero"],
    "scan_beyond_max_steps": ["scan", *ISO, "--state", "werner:0.5", "--steps", "1000001"],
    "evolve_overflowing_phase": ["evolve", "--jx=1e10", "--jy=0", "--jz=0", "--field=0",
                                 "--state", "werner:0.5", "--t", "1e300"],
    "spectrum_overflowing_eta": ["spectrum", "--jx", "1e308", "--jy", "-1e308", "--jz", "0", "--field", "0"],
    "spectrum_overflowing_energy": ["spectrum", "--jx", "8.98e307", "--jy", "-8.98e307", "--jz", "1.7e308",
                                    "--field", "5e307"],
    "classify_overflowing_eta": ["classify", "--jx", "1e308", "--jy", "-1e308", "--jz", "0", "--field", "1",
                                 "--state", "bell_diag:0.3,0.2,0.1"],
    "classify_maximally_mixed_overflowing_eta": ["classify", "--jx", "1e308", "--jy", "-1e308", "--jz", "0",
                                                 "--field", "1", "--state", "bell_diag:0,0,0"],
    "scan_overflowing_omega": ["scan", "--jx", "1e308", "--jy", "1e308", "--jz", "0", "--field", "1",
                               "--state", "werner:0.5", "--steps", "3"],
    "period_overflowing_nominal_period": ["period", "--jx", "1e-323", "--jy", "0", "--jz", "0", "--field", "0",
                                          "--state", "file:tests/data/two_mode_state.json", "--t-max", "10"],
    # stationary at eta = 5e-324: no period, so none to overflow
    "period_stationary_subnormal_eta": ["period", "--jx", "1e-323", "--jy", "0", "--jz", "0", "--field", "0",
                                        "--state", "bell_diag:0.3,0.2,0.1", "--t-max", "10"],
    "classify_overflowing_mode_period": ["classify", "--jx", "1e-323", "--jy", "1e-323", "--jz", "0", "--field",
                                         "0.3", "--state", "file:tests/data/two_mode_state.json"],
    "scan_overflowing_default_t_max": ["scan", "--jx", "6e-308", "--jy", "0", "--jz", "0", "--field", "0",
                                       "--state", "bell_diag:0.3,0.2,0.1", "--steps", "3"],
    "period_overflowing_default_t_max": ["period", "--jx", "3e-308", "--jy", "0", "--jz", "0", "--field", "3e-308",
                                         "--state", "bell_diag:0.3,0.2,0.1", "--steps", "3"],
    "period_insufficient_span": ["period", *ANISO, "--state", "bell_diag:0.3,-0.2,0.1", "--t-max", "1"],
    "validate_tiny_budget": ["validate", "--cases", "3"],
    "validate_negative_seed": ["validate", "--seed", "-1"],
    "out_missing_directory": ["classify", *ISO, "--state", "werner:0.5", "--out", "/nonexistent/x.json"],
    "out_is_a_directory": ["scan", *ISO, "--state", "werner:0.5", "--steps", "3", "--out", "tests/data"],
    "out_full_device": ["classify", *ISO, "--state", "werner:0.5", "--out", "/dev/full"],
    # overflowing couplings and a second fault: which of the two a command reports first
    "overflow_and_unknown_state_kind": ["classify", *OVERFLOW, "--state", "nonsense:1"],
    "overflow_and_missing_state_file": ["classify", *OVERFLOW, "--state", "file:tests/data/missing.json"],
    "overflow_and_state_outside_positivity": ["evolve", *OVERFLOW, "--state", "bell_diag:0.9,0.9,0.9", "--t", "1"],
    "overflow_and_infinite_t": ["evolve", *OVERFLOW, "--state", "werner:0.5", "--t", "inf"],
    "overflow_and_bad_werner": ["classify", *OVERFLOW, "--state", "werner:abc"],
    "overflow_and_one_step": ["scan", *OVERFLOW, "--state", "werner:0.5", "--t-max", "1", "--steps", "1"],
    "overflow_and_too_many_steps": ["scan", *OVERFLOW, "--state", "werner:0.5", "--t-max", "1",
                                    "--steps", "1000001"],
    "overflow_and_nan_t": ["spectrum", *OVERFLOW, "--t", "nan"],
    "overflow_and_p_out_of_range": ["period", *OVERFLOW, "--state", "psi_plus_mix:2"],
    "overflow_and_out_is_a_directory": ["scan", *OVERFLOW, "--state", "werner:0.5", "--steps", "3",
                                        "--out", "tests/data"],
    # a horizon of DBL_MAX: the grid's last sample is within rounding of overflow
    "scan_dbl_max_t_max": ["scan", *DBL_MAX_T_MAX],
    "period_dbl_max_t_max": ["period", *DBL_MAX_T_MAX],
}


def run_case(main, argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process call of main.

    A warning goes to stderr where the interpreter prints it, once per
    place as in a fresh process, as its category and message only: the
    file and line it names differ between installs.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, category, *_: err.write(f"...: {category.__name__}: {message}\n")
        try:
            code = main(list(argv))
        except Exception as exc:  # an uncaught error: record what the interpreter would print
            err.write("Traceback (most recent call last):\n  ...\n")
            err.write("".join(traceback.format_exception_only(exc)))
            code = 1
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    os.environ["COLUMNS"] = COLUMNS
    os.chdir(CORPUS.parents[2])  # state files are named relative to the repository root
    from xdyn.cli import main as xdyn_main

    CORPUS.mkdir(parents=True, exist_ok=True)
    for stale in [*CORPUS.glob("*.out"), *CORPUS.glob("*.err")]:
        stale.unlink()
    cases = []
    for name, argv in CASES.items():
        code, out, err = run_case(xdyn_main, argv)
        for suffix, text in ((".out", out), (".err", err)):
            if text:
                (CORPUS / f"{name}{suffix}").write_text(text, encoding="utf-8", newline="")
        cases.append({"name": name, "argv": argv, "exit": code})
    # one case per line, so that a changed case reads as one changed line
    manifest = (
        f'{{\n  "python": "{sys.version_info[0]}.{sys.version_info[1]}",\n'
        f'  "columns": {COLUMNS},\n  "cases": [\n    '
        + ",\n    ".join(json.dumps(case) for case in cases)
        + "\n  ]\n}\n"
    )
    (CORPUS / "cases.json").write_text(manifest, encoding="utf-8")
    print(f"wrote {len(cases)} cases to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
