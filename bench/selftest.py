"""Self-tests of the benchmark.  Run from the checkout root:

    python3 bench/selftest.py

1. A tiny run of every workload, untraced and traced, prints exactly the
   metrics BENCHMARK.json names, each with its unit, and nothing fails.
2. Count metrics of a traced run repeat exactly on a second run.
3. A corrupted output row is caught and counted in error_rate.
4. A refused request with the wrong exit code counts as a failure.
5. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.

The file name keeps pytest from collecting it into the repository's suite.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import worker  # noqa: E402

TINY = {"trajectory": 1, "verdict": 2, "referee": 1, "pointwise": 20}
COUNT_UNITS = ("count", "calls/sample", "calls/verdict", "calls/case", "bytes")


class SelfTestError(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SelfTestError(message)


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
            "workloads": [w["name"] for w in spec["workloads"]]}


def _bench(args: list[str], cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)
    return proc.returncode, proc.stdout


def _tiny(workload: str, trace: int, seed: int = 7) -> dict:
    code, out = _bench(["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                        "--trace", str(trace), "--requests", str(TINY[workload])])
    _expect(code == 0, f"{workload} trace={trace}: exit {code}\n{out}")
    return json.loads(out.strip().splitlines()[-1])


def test_tiny_runs_emit_every_metric() -> None:
    declared = _declared()
    _expect(sorted(declared["workloads"]) == sorted(bench_run.WORKLOADS), "workload lists differ")
    for workload in bench_run.WORKLOADS:
        for trace in (0, 1):
            result = _tiny(workload, trace)
            _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
            _expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                    f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            _expect(got == declared[trace], f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                    f"{sorted(set(got) ^ set(declared[trace]))}")


def test_trace_counts_repeat() -> None:
    first, second = _tiny("pointwise", 1), _tiny("pointwise", 1)
    for name, m in first["metrics"].items():
        if m["unit"] in COUNT_UNITS:
            _expect(m["value"] == second["metrics"][name]["value"], f"{name} differs between traced runs")


def _client(workload: str, mangle=None) -> worker.Client:
    workdir = ROOT / ".bench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    return worker.Client(workload, 11, workdir, mangle)


def _corrupt_last_row(req, out: str) -> str:
    lines = out.split("\n")
    fields = lines[-2].split(",")
    fields[1] = repr(float(fields[1]) - 1e-6)
    lines[-2] = ",".join(fields)
    return "\n".join(lines)


def _drop_a_row(req, out: str) -> str:
    lines = out.split("\n")
    return "\n".join(lines[:5] + lines[6:])


def test_corrupted_row_counts_as_error() -> None:
    clean = worker.measure(_client("trajectory"), 0.0, 1)["records"]
    _expect(clean[0]["failure"] is None, f"clean request failed: {clean[0]['failure']}")
    for mangle, word in ((_corrupt_last_row, "f_numeric"), (_drop_a_row, "rows")):
        records = worker.measure(_client("trajectory", mangle), 0.0, 1)["records"]
        failure = records[0]["failure"] or ""
        _expect(word in failure, f"corruption by {mangle.__name__} not caught: {failure!r}")
        lines = bench_run._summary_lines(records, {r["k"] for r in records if r["failure"]}, [])
        _expect("error_rate 1" in lines[0], f"error_rate not counted: {lines[0]}")
        _expect(bench_run.end_to_end(records, 1, 1.0, 1)["requests_per_s"][0] == 0.0,
                "a failed request counted as completed")


def test_wrong_refusal_code_is_a_failure() -> None:
    client = _client("pointwise")
    req = client.request(5)  # refuse_positivity: a state outside positivity exits 1
    _expect(req.expect == 1, "request 5 of pointwise is not a positivity refusal")
    _expect(client.run(req)["failure"] is None, "a correct refusal counted as a failure")
    wrong = dataclasses.replace(req, expect=2)
    failure = client.run(wrong)["failure"]
    _expect(failure == "exit code 1, expected 2", f"wrong refusal code not caught: {failure!r}")


def test_bare_directory_fails_without_result() -> None:
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, out = _bench(["--workload", "referee", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _expect(code != 0, "benchmark exited 0 without sources")
    _expect('"correct"' not in out, "benchmark printed a result without sources")


TESTS = [
    test_tiny_runs_emit_every_metric,
    test_trace_counts_repeat,
    test_corrupted_row_counts_as_error,
    test_wrong_refusal_code_is_a_failure,
    test_bare_directory_fails_without_result,
]


def main() -> int:
    failed = 0
    for test in TESTS:
        try:
            test()
            print(f"PASS {test.__name__}")
        except SelfTestError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    print(f"{len(TESTS) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
