"""Command line behavior: output schemas, exit codes, determinism."""
import argparse
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from xdyn import CouplingParams, TimeGrid, XState, evolve_closed, preset_p_mixture, scan
from xdyn._text import BLOCK
from xdyn.cli import STATE_FILE_MAX_CHARS, _emit, _trace_csv, _trace_json, build_parser, main

ISO = ["--jx", "1", "--jy", "1", "--jz", "1", "--field", "0"]
ANISO = ["--jx", "1", "--jy", "0.4", "--jz", "0.5", "--field", "0.8"]
DATA = Path(__file__).resolve().parent / "data"
TWO_MODE_STATE = DATA / "two_mode_state.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, *[])
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "spectrum", *ISO, "--bogus", "1")
    assert code == 2


def test_spectrum_isotropic(capsys):
    code, out, err = run_cli(capsys, "spectrum", *ISO)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["energies"] == [0.5, 0.5, 0.5, -1.5]
    assert payload["norms"] == [0.0, 0.0]
    assert "propagator" not in payload
    # eigenvector columns pair with energies; the last is the singlet
    singlet = payload["eigenvectors"][3]
    assert abs(singlet[1][0] - 1.0 / math.sqrt(2.0)) < 1e-15
    assert abs(singlet[2][0] + 1.0 / math.sqrt(2.0)) < 1e-15


def test_spectrum_with_propagator_and_phase(capsys):
    args = ["spectrum", "--jx", "1", "--jy", "0", "--jz", "0.5", "--field", "2", "--t", "1.3"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    bare = json.loads(out)["propagator"]
    assert bare["global_phase_included"] is False

    code, out, _ = run_cli(capsys, *args, "--phase")
    full = json.loads(out)["propagator"]
    assert full["global_phase_included"] is True
    # the phase-stripped block entries do not depend on the flag
    assert full["mu_plus"] == bare["mu_plus"]
    assert full["matrix"] != bare["matrix"]


def test_evolve_output_matches_library(capsys):
    code, out, err = run_cli(
        capsys,
        "evolve",
        "--jx", "1", "--jy", "0", "--jz", "0.5", "--field", "2",
        "--state", "phi_plus_mix:0.7",
        "--t", "1.1",
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    ref = evolve_closed(
        preset_p_mixture("phi_plus", 0.7),
        CouplingParams(jx=1.0, jy=0.0, jz=0.5, field=2.0),
        1.1,
    ).matrix
    got = np.array([[complex(re, im) for re, im in row] for row in payload["density"]])
    assert np.max(np.abs(got - ref)) < 1e-15
    assert abs(payload["purity"] - 0.6175) < 1e-12
    assert set(payload["bloch"]) == {"s1", "s2", "c1", "c2", "c3"}
    # c1 - c2 is four times the real outer coherence of the evolved matrix
    assert abs(
        payload["bloch"]["c1"] - payload["bloch"]["c2"] - 4.0 * ref[0, 3].real
    ) < 1e-12
    assert "propagator" in payload


def test_evolve_requires_time(capsys):
    code, _, _ = run_cli(
        capsys, "evolve", *ISO, "--state", "werner:0.5"
    )
    assert code == 2


@pytest.mark.parametrize("flag", ["--jx", "--jy", "--jz", "--field", "--t"])
def test_negative_exponent_values_as_separate_tokens(capsys, flag):
    values = {"--jx": "1", "--jy": "0.3", "--jz": "0.5", "--field": "0.8", "--t": "1.1"}
    values[flag] = "-1e-10"
    joined = [f"{k}={v}" for k, v in values.items()]
    split = [tok for k, v in values.items() for tok in (k, v)]
    code, out_joined, err = run_cli(capsys, "evolve", *joined, "--state", "werner:0.5")
    assert code == 0 and err == ""
    code, out_split, err = run_cli(capsys, "evolve", *split, "--state", "werner:0.5")
    assert code == 0 and err == ""
    assert out_split == out_joined
    payload = json.loads(out_split)
    assert (payload["t"] if flag == "--t" else payload["params"][flag[2:]]) == -1e-10


def test_negative_exponent_t_max_reaches_grid_check(capsys):
    # read as a value, so the grid refuses it (exit 1), not argparse (exit 2)
    for t_max in (["--t-max", "-2.5E+1"], ["--t-max=-2.5E+1"]):
        code, out, err = run_cli(capsys, "scan", *ISO, "--state", "werner:0.5", *t_max)
        assert code == 1 and out == ""
        assert "t_max must be finite and positive, got -25.0" in err


def test_scan_refuses_grid_beyond_max_steps(capsys):
    code, out, err = run_cli(capsys, "scan", *ISO, "--state", "werner:0.5", "--steps", "1000000000000")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "at most 1000000," in err


def test_period_at_the_largest_field_scans_three_periods(capsys):
    # eta = 1e308 is finite although 2 B is not, so the default horizon is 3 pi / eta
    code, out, err = run_cli(
        capsys, "period", "--jx", "1", "--jy", "1", "--jz", "0", "--field", "1e308",
        "--state", "bell_diag:0.3,0.2,0.1",
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["nominal_period"] == math.pi / 1e308
    assert payload["t_max"] == 3.0 * (math.pi / 1e308)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--jx", "0", "--jy", "0", "--jz", "1e10", "--field", "0", "--t", "1e300"],
        ["evolve", "--jx", "0", "--jy", "0", "--jz", "1e10", "--field", "0",
         "--state", "werner:0.5", "--t", "1e300"],
        ["scan", "--jx=1e10", "--jy=0", "--jz=0", "--field=0", "--state", "werner:0.5",
         "--t-max", "1e300", "--steps", "3"],
    ],
    ids=["spectrum", "evolve", "scan"],
)
def test_overflowing_phase_is_refused_up_front(capsys, argv):
    # jz*t or eta*t overflows a float: one error line naming t, no traceback
    # from cmath.exp and no numpy warning (pytest turns warnings into errors)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: t = 1e+300 overflows a phase") and err.count("\n") == 1


@pytest.mark.parametrize(
    "coupling",
    [ISO, ["--jx", "1", "--jy", "0.4", "--jz", "0.5", "--field", "0"]],
    ids=["eta_zero", "zero_field"],
)
def test_scan_at_eta_zero_and_zero_field_is_quiet(capsys, coupling):
    # sinc(0) on every sample or at t = 0, and a pure state's all-zero inner
    # block, must not raise numpy's divide or invalid warnings
    for state in ("phi_plus_mix:0.7", "phi_plus_mix:1"):
        for fmt in ("csv", "json"):
            code, out, err = run_cli(
                capsys, "scan", *coupling, "--state", state, "--steps", "50", "--format", fmt
            )
            assert code == 0 and out and err == ""


BELL = preset_p_mixture("phi_plus", 0.7)
GENERIC = XState(a=0.5, b=0.2, c=0.2, d=0.1, z=0.1, w=0.1)
COUPLING = (1.0, 0.4, 0.5, 0.8)
# Rows of a block: five CSV cells, or one JSON value, per row.
ROWS = {_trace_csv: BLOCK // 5, _trace_json: BLOCK}
CSV_BLOCK = ROWS[_trace_csv]
# state, couplings, grid points
RENDER_CASES = {
    "bell": (BELL, COUPLING, 301),
    "generic": (GENERIC, COUPLING, 301),  # f_closed is the empty column
    "block-1": (BELL, COUPLING, CSV_BLOCK - 1),
    "block": (BELL, COUPLING, CSV_BLOCK),
    "block+1": (BELL, COUPLING, CSV_BLOCK + 1),
    "3block+1": (BELL, COUPLING, 3 * CSV_BLOCK + 1),
    "generic-3block+1": (GENERIC, COUPLING, 3 * CSV_BLOCK + 1),
    "json-block-1": (BELL, COUPLING, BLOCK - 1),
    "json-block": (BELL, COUPLING, BLOCK),
    "json-block+1": (BELL, COUPLING, BLOCK + 1),
    # maximally mixed: every fidelity cell is 1
    "stationary": (XState(a=0.25, b=0.25, c=0.25, d=0.25, z=0.0, w=0.0), COUPLING, 301),
    # w = 0 and a = d with field and anisotropy of opposite signs: c1_minus_c2 prints -0
    "minus-zero": (XState(a=0.3, b=0.2, c=0.2, d=0.3, z=0.1, w=0.0), (0.4, 1.0, 0.5, 0.8), 301),
}


def _per_value_csv(trace) -> str:
    # the renderer as a loop over rows and values: the reference
    names = ["times", "f_numeric", "f_closed", "purity", "c1_minus_c2"]
    cols = [getattr(trace, name) for name in names]
    rows = [
        ",".join("" if col is None else format(float(col[k]), ".17g") for col in cols)
        for k in range(len(trace.times))
    ]
    return "\n".join(["t,f_numeric,f_closed,purity,c1_minus_c2", *rows]) + "\n"


def _per_value_json(trace) -> str:
    names = ["times", "f_numeric", "f_closed", "purity", "c1_minus_c2"]
    cols = [getattr(trace, name) for name in names]
    payload = {n: None if col is None else [float(x) for x in col] for n, col in zip(names, cols)}
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("case", list(RENDER_CASES))
def test_trace_rendering_matches_per_value_formatting(case):
    state, coupling, steps = RENDER_CASES[case]
    trace = scan(state, CouplingParams(*coupling), TimeGrid(t_max=7.0, steps=steps))
    if case == "stationary":
        assert set(trace.f_numeric.tolist()) == set(trace.f_closed.tolist()) == {1.0}
    if case == "minus-zero":
        assert np.any(np.signbit(trace.c1_minus_c2) & (trace.c1_minus_c2 == 0.0))
    assert (trace.f_closed is None) == case.startswith("generic")
    assert "".join(_trace_csv(trace)) == _per_value_csv(trace)
    assert "".join(_trace_json(trace)) == _per_value_json(trace)


def _emit_peak(render, steps: int, out: Path) -> tuple[int, int]:
    """Peak traced memory while _emit renders and writes a scan held in hand, and the text's length."""
    trace = scan(BELL, CouplingParams(*COUPLING), TimeGrid(t_max=7.0, steps=steps))
    _emit(render(trace), str(out))  # first-call allocations out of the way
    tracemalloc.start()
    try:
        _emit(render(trace), str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = out.read_text(encoding="utf-8")
    assert text == "".join(render(trace))
    return peak, len(text)


@pytest.mark.parametrize("render", [_trace_csv, _trace_json], ids=["csv", "json"])
def test_rendering_memory_stays_flat_beyond_one_block(render, tmp_path):
    # rendering and writing hold one block at a time, however long the grid
    peak_2, _ = _emit_peak(render, 2 * ROWS[render], tmp_path / "trace.out")
    peak_8, _ = _emit_peak(render, 8 * ROWS[render], tmp_path / "trace.out")
    assert peak_8 <= 1.5 * peak_2


@pytest.mark.parametrize("render", [_trace_csv, _trace_json], ids=["csv", "json"])
def test_written_output_is_never_copied_whole(render, tmp_path):
    # --out gets the text part by part and the whole text never exists: the
    # peak stays well under half its length.  32 blocks, since a CSV block's
    # working arrays alone take about as much as 8 blocks of text.
    peak, length = _emit_peak(render, 32 * ROWS[render], tmp_path / "trace.out")
    assert peak < 0.5 * length


def test_non_numeric_dash_token_is_still_a_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "--jx", "1", "--jy", "0", "--jz", "0", "--field", "-e5"
    )
    assert code == 2 and "expected one argument" in err


def test_scan_csv_shape_and_determinism(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = [
        "scan",
        "--jx", "1", "--jy", "1", "--jz", "0.5", "--field", "1",
        "--state", "phi_plus_mix:0.7",
        "--t-max", "10", "--steps", "2000",
        "--format", "csv",
    ]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    data_a = out_a.read_bytes()
    assert data_a == out_b.read_bytes()
    lines = data_a.decode().split("\n")
    assert lines[0] == "t,f_numeric,f_closed,purity,c1_minus_c2"
    assert lines[-1] == ""  # trailing newline
    assert len(lines) == 2002  # header + 2000 rows + final newline split
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"


def test_scan_json_mirrors_trace_fields(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--jx", "1", "--jy", "1", "--jz", "0.5", "--field", "1",
        "--state", "phi_plus_mix:0.7",
        "--t-max", "5", "--steps", "50",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["times", "f_numeric", "f_closed", "purity", "c1_minus_c2"]
    assert len(payload["times"]) == 50
    assert payload["f_closed"] is not None


def test_scan_polarized_state_empty_closed_column(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"abcdzw": [0.5, 0.2, 0.2, 0.1, 0.1, 0.1]}))
    code, out, _ = run_cli(
        capsys,
        "scan",
        *ISO,
        "--state", f"file:{state}",
        "--t-max", "2", "--steps", "5",
    )
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 5
    for row in rows:
        assert row.split(",")[2] == ""


def test_classify_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify",
        "--jx", "1", "--jy", "1", "--jz", "0.5", "--field", "1.5",
        "--state", "werner:0.8",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"kind": "stationary", "reason": "c1_equals_c2", "period": None}


def test_period_default_grid(capsys):
    code, out, _ = run_cli(
        capsys,
        "period",
        "--jx", "1", "--jy", "1", "--jz", "0.5", "--field", "0.5",
        "--state", "phi_plus_mix:0.5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["steps"] == 5000
    assert abs(payload["t_max"] - 6.0 * math.pi) < 1e-12
    assert abs(payload["nominal_period"] - 2.0 * math.pi) < 1e-12
    assert abs(payload["detected_period"] - 2.0 * math.pi) / (2.0 * math.pi) < 1e-4


def test_period_refuses_a_quasi_periodic_trace(capsys):
    argv = [
        "--jx", "1.3", "--jy", "0.4", "--jz", "0.5", "--field", "0.7",
        "--state", f"file:{TWO_MODE_STATE}",
    ]
    code, out, _ = run_cli(capsys, "classify", *argv)
    assert code == 0
    mode_periods = json.loads(out)["mode_periods"]
    code, out, err = run_cli(capsys, "period", *argv, "--t-max", "60")
    assert code == 1 and out == ""
    assert err.startswith("error: period: the trace is quasi-periodic")
    assert all(repr(t) in err for t in mode_periods)
    # refused before the grid is built, whatever the grid flags
    code, out, err = run_cli(capsys, "period", *argv, "--steps", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: period: the trace is quasi-periodic")


@pytest.mark.parametrize(
    "couplings, state",
    [
        (["--jx", "1.3", "--jy", "0.4", "--jz", "0.5", "--field", "0.7"], "omega_mode_state.json"),
        (["--jx", "1", "--jy", "0", "--jz", "0.5", "--field", "0.8660254037844386"], "two_mode_state.json"),
    ],
    ids=["omega_mode", "two_mode_q2"],
)
def test_period_default_window_holds_three_of_classify_periods(capsys, couplings, state):
    # the Omega mode alone (pi/|Omega|), and two modes with |Omega|/eta = 1/2 (2 pi/eta)
    argv = [*couplings, "--state", f"file:{DATA / state}"]
    code, out, _ = run_cli(capsys, "classify", *argv)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["kind"] == "periodic"
    period = verdict["period"]
    code, out, err = run_cli(capsys, "period", *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["t_max"] == 3.0 * period and payload["nominal_period"] == period
    assert abs(payload["detected_period"] - period) <= 1e-3 * period


def test_validate_subcommand(capsys):
    code, out, _ = run_cli(capsys, "validate", "--seed", "3", "--cases", "20")
    assert code == 0
    assert "result: PASS" in out
    code2, out2, _ = run_cli(capsys, "validate", "--seed", "3", "--cases", "20")
    assert out2 == out


def test_validate_rejects_tiny_case_budget(capsys):
    code, _, err = run_cli(capsys, "validate", "--cases", "3")
    assert code == 1
    assert "error:" in err


def test_validate_rejects_negative_seed(capsys):
    code, out, err = run_cli(capsys, "validate", "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "seed" in err


def test_exit_code_domain_error(capsys):
    code, _, err = run_cli(
        capsys,
        "evolve", *ISO, "--state", "bell_diag:0.9,0.9,0.9", "--t", "1",
    )
    assert code == 1
    assert "error:" in err


def test_exit_code_state_grammar(capsys):
    for bad in ("nonsense:1", "werner", "bell_diag:1,2", "phi_plus_mix:abc"):
        code, _, err = run_cli(capsys, "evolve", *ISO, "--state", bad, "--t", "1")
        assert code == 2, bad
        assert "error:" in err


def test_exit_code_werner_out_of_range_is_domain(capsys):
    code, _, _ = run_cli(capsys, "evolve", *ISO, "--state", "werner:1.2", "--t", "1")
    assert code == 1


def test_exit_code_state_file_errors(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "evolve", *ISO, "--state", f"file:{tmp_path}/missing.json", "--t", "1"
    )
    assert code == 2 and "cannot read" in err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    code, _, err = run_cli(capsys, "evolve", *ISO, "--state", f"file:{bad_json}", "--t", "1")
    assert code == 2 and "invalid JSON" in err

    # not UTF-8, nested deeper than the parser recurses, an int too large for a float
    for name in ("utf16_state.json", "deeply_nested_state.json", "huge_int_state.json"):
        code, out, err = run_cli(capsys, "evolve", *ISO, "--state", f"file:{DATA / name}", "--t", "1")
        assert code == 2 and out == "" and err.startswith("error: "), name

    bad_schema = tmp_path / "schema.json"
    bad_schema.write_text(json.dumps({"nope": 1}))
    code, _, _ = run_cli(capsys, "evolve", *ISO, "--state", f"file:{bad_schema}", "--t", "1")
    assert code == 2

    unnormalized = tmp_path / "trace.json"
    unnormalized.write_text(json.dumps({"abcdzw": [0.5, 0.5, 0.5, 0.5, 0.0, 0.0]}))
    code, _, _ = run_cli(capsys, "evolve", *ISO, "--state", f"file:{unnormalized}", "--t", "1")
    assert code == 1  # well-formed file, physically invalid state


@pytest.mark.parametrize("where", ["missing_directory", "directory"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, where):
    path = tmp_path / "missing" / "x.json" if where == "missing_directory" else tmp_path
    code, out, err = run_cli(capsys, "classify", *ISO, "--state", "werner:0.5", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: --out: cannot write {str(path)!r}: [Errno ")
    assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


FULL_DEVICE = Path("/dev/full")
CLASSIFY_WERNER = ["classify", *ISO, "--state", "werner:0.5"]
SCAN_WERNER = ["scan", *ISO, "--state", "werner:0.5", "--steps", "3000"]


@pytest.mark.skipif(not FULL_DEVICE.exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [CLASSIFY_WERNER, SCAN_WERNER], ids=lambda argv: argv[0])
def test_a_failed_payload_write_is_a_usage_error(capsys, argv):
    # a device that refuses every write: exit 2 with one error line, no traceback
    code, out, err = run_cli(capsys, *argv, "--out", str(FULL_DEVICE))
    assert (code, out) == (2, "")
    assert err == f"error: --out: cannot write {str(FULL_DEVICE)!r}: [Errno 28] No space left on device\n"
    with FULL_DEVICE.open("w") as stdout:
        proc = subprocess.run([sys.executable, "-m", "xdyn.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_closed_pipe_on_out_is_a_failed_write(tmp_path, capsys):
    # a FIFO whose reader leaves after 10 bytes: the payload is cut short, so exit 2
    fifo, got = tmp_path / "fifo", []
    os.mkfifo(fifo)

    def read_ten():
        with open(fifo, "rb") as reader:  # blocks until xdyn opens the FIFO for writing
            got.append(reader.read(10))

    reader = threading.Thread(target=read_ten, daemon=True)
    reader.start()
    code, out, err = run_cli(capsys, "scan", *ISO, "--state", "werner:0.5", "--steps", "20000", "--out", str(fifo))
    reader.join(timeout=10)
    assert not reader.is_alive() and got == [b"t,f_numeri"]
    assert (code, out) == (2, "")
    assert err == f"error: --out: cannot write {str(fifo)!r}: [Errno 32] Broken pipe\n"


def test_out_to_dev_stdout_survives_early_pipe_close():
    # --out /dev/stdout is stdout: a reader closing it early is no error, as without --out
    cmd = (
        f"{sys.executable} -m xdyn.cli scan --jx 1 --jy 0.3 --jz 0.5 --field 0.8 "
        "--state phi_plus_mix:0.6 --steps 20000 --out /dev/stdout | head -c 10; exit ${PIPESTATUS[0]}"
    )
    proc = subprocess.run(cmd, shell=True, executable="/bin/bash", capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "t,f_numeri", "")


def test_state_file_is_read_up_to_its_limit(tmp_path, capsys):
    # a valid state padded with spaces to the limit is read; one character more is refused
    # unparsed, with the path named, so an endless source cannot exhaust memory
    state = json.dumps({"preset": {"name": "werner", "args": [0.8]}})
    path = tmp_path / "padded.json"
    path.write_text(state.ljust(STATE_FILE_MAX_CHARS))
    code, out, _ = run_cli(capsys, *CLASSIFY_WERNER[:-1], f"file:{path}")
    assert code == 0 and json.loads(out)["kind"] == "stationary"
    path.write_text(state.ljust(STATE_FILE_MAX_CHARS + 1))
    code, out, err = run_cli(capsys, *CLASSIFY_WERNER[:-1], f"file:{path}")
    assert (code, out) == (2, "")
    assert err == f"error: --state file {str(path)!r}: longer than {STATE_FILE_MAX_CHARS} characters\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", *ANISO, "--state", "phi_plus_mix:0.7", "--t", "1.1", "--phase"],
        ["spectrum", *ANISO, "--t", "1.3"],
        ["scan", *ANISO, "--state", "bell_diag:0.3,-0.2,0.1", "--steps", "50"],
        ["classify", *ANISO, "--state", "file:tests/data/two_mode_state.json"],
        ["period", *ANISO, "--state", "bell_diag:0.3,-0.2,0.1", "--steps", "300"],
    ],
    ids=lambda argv: argv[0],
)
def test_one_request_computes_the_frequencies_once(capsys, monkeypatch, argv):
    # eta, omega and delta are computed on first use and kept on the couplings,
    # however many of the request's closed forms read them
    cached = CouplingParams.__dict__["_frequencies"]
    compute, calls = cached.func, []
    monkeypatch.setattr(cached, "func", lambda p: calls.append(p) or compute(p))
    monkeypatch.chdir(DATA.parent.parent)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0 and len(calls) == 1


def test_back_to_back_calls_share_no_state(tmp_path, capsys):
    out = tmp_path / "period.json"
    bell = ["--jx", "1", "--jy", "1", "--jz", "0.5", "--field", "0.5", "--state", "phi_plus_mix:0.5"]
    assert main(["period", *bell, "--t-max", "20", "--steps", "800", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["steps"] == 800
    # the defaults and stdout come back once the flags are gone
    code, printed, _ = run_cli(capsys, "period", *bell)
    assert code == 0 and json.loads(printed)["steps"] == 5000
    assert json.loads(printed)["t_max"] == 6.0 * math.pi
    # a different subcommand, then the first one again
    code, printed, _ = run_cli(capsys, "spectrum", *ISO, "--t", "1", "--phase")
    assert code == 0 and json.loads(printed)["propagator"]["global_phase_included"] is True
    code, printed, _ = run_cli(capsys, "spectrum", *ISO)
    assert code == 0 and "propagator" not in json.loads(printed)
    code, printed, _ = run_cli(capsys, "period", *bell)
    assert code == 0 and json.loads(printed)["steps"] == 5000
    assert build_parser() is not build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", *ISO, "--t", "-1e-3"],
        ["evolve", *ISO, "--state", "werner:0.5", "--t", "2", "--phase"],
        ["scan", *ISO, "--state", "werner:0.5", "--steps", "7", "--format", "json"],
        ["classify", *ISO, "--state", "werner:0.5", "--out", "x.json"],
        ["period", *ISO, "--state", "werner:0.5", "--t-max", "3"],
        ["validate", "--seed", "-3"],
    ],
    ids=lambda argv: argv[0],
)
def test_parser_for_one_command_matches_the_full_parser(argv):
    full, one = build_parser(), build_parser(argv[0])
    assert one.format_help() == full.format_help()
    assert one.format_usage() == full.format_usage()
    full_sub, one_sub = _subparser(full, argv[0]), _subparser(one, argv[0])
    assert one_sub.format_help() == full_sub.format_help()
    assert one_sub.format_usage() == full_sub.format_usage()
    assert vars(one.parse_args(argv)) == vars(full.parse_args(argv))


def _subparser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


def test_state_file_matches_inline(tmp_path, capsys):
    state = tmp_path / "w.json"
    state.write_text(json.dumps({"preset": {"name": "werner", "args": [0.8]}}))
    code, out_file, _ = run_cli(
        capsys, "classify", *ISO, "--field", "1.5", "--state", f"file:{state}"
    )
    # --field repeated: argparse keeps the last value
    code2, out_inline, _ = run_cli(
        capsys, "classify", *ISO, "--field", "1.5", "--state", "werner:0.8"
    )
    assert code == 0 and code2 == 0
    assert out_file == out_inline


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "xdyn.cli", "spectrum", *ISO],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["energies"] == [0.5, 0.5, 0.5, -1.5]


def test_scan_survives_early_pipe_close():
    # a consumer like `head` closing stdout must not produce a traceback or a
    # failing exit code; 3000 rows comfortably exceed the 64K pipe buffer in either format
    for fmt, first_line in (("csv", "t,f_numeric,f_closed,purity,c1_minus_c2"), ("json", "{")):
        cmd = (
            f"{sys.executable} -m xdyn.cli scan --jx 1 --jy 0.3 --jz 0.5 --field 0.8 "
            f"--state phi_plus_mix:0.6 --t-max 5 --steps 3000 --format {fmt} | head -n 2; "
            "exit ${PIPESTATUS[0]}"
        )
        proc = subprocess.run(cmd, shell=True, executable="/bin/bash", capture_output=True, text=True)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert proc.stdout.splitlines()[0] == first_line
