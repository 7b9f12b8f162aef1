"""Command line behavior: output schemas, exit codes, determinism."""
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from xdyn import CouplingParams, TimeGrid, XState, evolve_closed, preset_p_mixture, scan
from xdyn.cli import _trace_csv, _trace_json, main

ISO = ["--jx", "1", "--jy", "1", "--jz", "1", "--field", "0"]


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


@pytest.mark.parametrize(
    "state",
    [preset_p_mixture("phi_plus", 0.7), XState(a=0.5, b=0.2, c=0.2, d=0.1, z=0.1, w=0.1)],
    ids=["bell", "generic"],
)
def test_trace_rendering_matches_per_value_formatting(state):
    trace = scan(state, CouplingParams(1.0, 0.4, 0.5, 0.8), TimeGrid(t_max=7.0, steps=301))
    names = ["times", "f_numeric", "f_closed", "purity", "c1_minus_c2"]
    cols = [getattr(trace, name) for name in names]
    rows = [
        ",".join("" if col is None else format(float(col[k]), ".17g") for col in cols)
        for k in range(len(trace.times))
    ]
    assert _trace_csv(trace) == "\n".join(["t,f_numeric,f_closed,purity,c1_minus_c2", *rows]) + "\n"
    payload = {n: None if col is None else [float(x) for x in col] for n, col in zip(names, cols)}
    assert _trace_json(trace) == json.dumps(payload, indent=2) + "\n"


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

    bad_schema = tmp_path / "schema.json"
    bad_schema.write_text(json.dumps({"nope": 1}))
    code, _, _ = run_cli(capsys, "evolve", *ISO, "--state", f"file:{bad_schema}", "--t", "1")
    assert code == 2

    unnormalized = tmp_path / "trace.json"
    unnormalized.write_text(json.dumps({"abcdzw": [0.5, 0.5, 0.5, 0.5, 0.0, 0.0]}))
    code, _, _ = run_cli(capsys, "evolve", *ISO, "--state", f"file:{unnormalized}", "--t", "1")
    assert code == 1  # well-formed file, physically invalid state


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
    # a consumer like `head` closing stdout must not produce a traceback;
    # 3000 rows comfortably exceed the 64K pipe buffer
    cmd = (
        f"{sys.executable} -m xdyn.cli scan --jx 1 --jy 0.3 --jz 0.5 --field 0.8 "
        f"--state phi_plus_mix:0.6 --t-max 5 --steps 3000 | head -n 2"
    )
    proc = subprocess.run(cmd, shell=True, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines()[0] == "t,f_numeric,f_closed,purity,c1_minus_c2"
