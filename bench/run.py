"""The xdyn benchmark: one workload per invocation, from the checkout root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it measures set-up (fresh interpreters importing xdyn.cli),
then runs the workload's closed loop in a fresh worker interpreter, after
an untimed warm-up, for S seconds of request time, replays the first
requests in another interpreter to confirm byte-identical output, and
prints the end-to-end metrics.  With --trace 1 it runs the workload's fixed trace budget
untraced and traced and prints the per-layer metrics.

Every output is checked against an independent reference outside the
timed region.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when every
output was correct.  Human-readable lines, provenance included, precede
it.  Worker records, spans and the full result land in
.bench_work/<workload>-<seed>-<trace>/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Same as workloads.WORKLOADS; repeated so that this process never imports numpy.
WORKLOADS = ("trajectory", "verdict", "referee", "pointwise")

SETUP_SPAWNS = 7
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import xdyn.cli"
# Every run ends inside 180 s; subprocess time-outs come out of this budget.
RUN_BUDGET_S = 170.0
# p90 is reported only with at least ten requests beyond it.
P90_MIN_REQUESTS = 100


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _remaining(t0: float) -> float:
    left = RUN_BUDGET_S - (time.monotonic() - t0)
    if left <= 1.0:
        raise BenchError("run budget exhausted")
    return left


def measure_setup(t0: float) -> float:
    """Median wall time of fresh interpreters that import xdyn.cli."""
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, capture_output=True,
                              text=True, timeout=min(30.0, _remaining(t0)))
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"importing xdyn.cli failed: {proc.stderr.strip()[-400:]}")
    return statistics.median(times)


def run_worker(t0: float, mode: str, workload: str, seed: int, seconds: float, workdir: Path,
               requests: int | None = None) -> dict:
    out = workdir / f"{mode}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, workload, str(seed), str(seconds), str(workdir), str(out)]
    if requests is not None:
        cmd += ["--requests", str(requests)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=_remaining(t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def end_to_end(records: list[dict], cycle: int, setup_s: float, peak_rss_kb: int) -> dict:
    """End-to-end metrics of one request cycle at each cost group's mean latency.

    Requests of one group do the same work on different values.  A run
    stops inside a cycle, so the mix of its requests depends on where it
    stopped.  Weighting each group's mean latency by the group's share of
    a whole cycle (the first ``cycle`` records hold one) removes that.  The
    share of verified requests scales the rates, so a failed request
    lowers them.
    """
    latencies = defaultdict(list)
    for r in records:
        latencies[r["group"]].append(r["latency_s"])
    mean = {group: statistics.fmean(values) for group, values in latencies.items()}
    one_cycle = records[:cycle]
    cycle_s = sum(mean[r["group"]] for r in one_cycle)
    verified = sum(r["failure"] is None for r in records) / len(records)
    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (verified * len(one_cycle) / cycle_s, "1/s"),
        "samples_per_s": (verified * sum(r["units"] for r in one_cycle) / cycle_s, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(mean[r["group"]] for r in one_cycle), "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def _summary_lines(records: list[dict], failed: set[int], warmup: list[dict]) -> list[str]:
    """Error rate over every checked request, and the as-run figures over the timed
    ones without the cycle weighting."""
    n = len(records)
    attempted = n + len(warmup)
    busy = sum(r["latency_s"] for r in records)
    latencies = [r["latency_s"] for r in records]
    timed_failed = sum(r["k"] in failed for r in records)
    lines = [
        f"requests attempted {attempted} ({len(warmup)} untimed warm-up), failed {len(failed)}, "
        f"error_rate {len(failed) / attempted:.6g}",
        f"as run: {(n - timed_failed) / busy:.6g} verified requests/s over {busy:.3f} s of requests, "
        f"latency_p50_ms {1e3 * statistics.median(latencies):.6g} (n={n})",
    ]
    if n >= P90_MIN_REQUESTS:
        lines.append(f"as run: latency_p90_ms {1e3 * statistics.quantiles(latencies, n=10)[-1]:.6g} (n={n})")
    else:
        lines.append(f"as run: latency_p90_ms not reported, n={n} leaves fewer than ten requests beyond it")
    for r in (*warmup, *records):
        if r["k"] in failed:
            lines.append(f"FAILED request {r['k']} ({r['kind']}): {r['failure'] or 'output differs on replay'}")
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool, requests: int | None = None) -> tuple[dict, list[str]]:
    """(result object, human lines) of one benchmark run."""
    t0 = time.monotonic()
    if not (ROOT / "src" / "xdyn" / "cli.py").is_file():
        raise BenchError(f"no xdyn sources under {ROOT / 'src'}")
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    prov = provenance(workload, seed)
    lines = []
    if trace:
        data = run_worker(t0, "trace", workload, seed, seconds, workdir, requests)
        records = data["records"]
        failed = {i for i, r in enumerate(records) if r["failure"] is not None}
        metrics = data["per_layer"]
        lines.append(f"traced {len(records) // 2} requests, {data['wrapped']} callables wrapped, "
                     f"spans in {workdir.relative_to(ROOT) / 'spans.jsonl'}")
        lines.extend(f"FAILED request {r['k']} ({r['kind']}): {r['failure']}" for r in records if r["failure"])
    else:
        setup_s = measure_setup(t0)
        data = run_worker(t0, "measure", workload, seed, seconds, workdir, requests)
        records = data["records"]
        if not records:
            raise BenchError("no request completed")
        checked = data["warmup"] + records
        failed = {r["k"] for r in checked if r["failure"] is not None}
        replay = run_worker(t0, "replay", workload, seed, seconds, workdir, len(data["digests"]))
        for k, digest in data["digests"].items():
            if replay["digests"].get(k) != digest:
                failed.add(int(k))
        metrics = end_to_end(records, data["cycle"], setup_s, data["peak_rss_kb"])
        lines.extend(_summary_lines(records, failed, data["warmup"]))
        records = checked
    for state_file in workdir.glob("state_*.json"):
        state_file.unlink()
    prov["numpy"] = data["numpy"]
    lines.insert(0, "provenance " + json.dumps(prov, sort_keys=True))
    lines.extend(f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items())
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps({"provenance": prov, "result": result}, indent=2), encoding="utf-8")
    return result, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--requests", type=int, default=None, help="cap on requests, for tiny self-test runs")
    ns = ap.parse_args(argv)
    try:
        result, lines = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace), ns.requests)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
