"""One workload in a fresh interpreter: a closed loop with one client.

The client calls ``xdyn.cli.main(argv)`` in-process, one request after the
other, with stdout and stderr captured in memory.  Only that call is
timed.  Building the request (and its state file) before it and checking
the output after it happen outside the timed region.

Modes:
  measure  an untimed warm-up, then requests until their summed time
           reaches --seconds, and at least one of every class; records
           every request.
  trace    a fixed request budget, run untraced and then traced, so that
           count metrics repeat exactly for a seed and the difference of
           the two passes is the tracing overhead.
  replay   the first requests again, for their output digests.

Usage: python3 bench/worker.py MODE WORKLOAD SEED SECONDS WORKDIR OUT [--requests N]
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Stop starting requests after this much wall time, whatever --seconds says,
# so a run ends well inside the 180 s a run may take.
HARD_CAP_S = 110.0

# Warm-up requests come from this index on, so they never repeat a measured
# request; they run until WARMUP_S of request time or one whole cycle.
WARMUP_BASE = 1_000_000
WARMUP_S = 1.0

TRACE_REQUESTS = {"trajectory": 6, "verdict": 10, "referee": 6, "pointwise": 1000}
REPLAY_REQUESTS = {"trajectory": 2, "verdict": 2, "referee": 2, "pointwise": 30}


def execute(main, argv: list[str]) -> tuple[int | None, float, str, str | None]:
    """(exit code, seconds, stdout, exception) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a failed request, not a failed benchmark
            return None, perf_counter() - start, out.getvalue(), f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return code, elapsed, out.getvalue(), None


class Client:
    """Runs and checks requests of one workload; ``mangle`` lets the self-test corrupt outputs."""

    def __init__(self, workload: str, seed: int, workdir: Path, mangle=None):
        import xdyn.cli

        if not Path(xdyn.cli.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"xdyn imported from {xdyn.cli.__file__}, not from this checkout")
        self.cli = xdyn.cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.mangle = mangle

    def request(self, k: int) -> workloads.Request:
        return workloads.make_request(self.workload, self.seed, k, self.workdir)

    def run(self, req: workloads.Request, on_output=None) -> dict:
        code, elapsed, out, crash = execute(self.cli.main, req.argv)
        if self.mangle is not None:
            out = self.mangle(req, out)
        if on_output is not None:
            on_output(req, out)
        reason = crash or workloads.check(self.workload, req, code, out)
        return {"k": req.index, "kind": req.kind, "group": req.group, "latency_s": elapsed, "code": code,
                "units": req.units, "bytes": len(out.encode("utf-8")), "failure": reason}


def warm_up(client: Client, cycle: int) -> list[dict]:
    """Untimed requests that pay first-call costs before the timed loop; checked like the rest."""
    records, busy = [], 0.0
    while not records or (busy < WARMUP_S and len(records) < cycle):
        record = client.run(client.request(WARMUP_BASE + len(records)))
        records.append(record)
        busy += record["latency_s"]
    return records


def measure(client: Client, seconds: float, cap: int | None) -> dict:
    """A warm-up, then requests until their summed time reaches ``seconds``, at least one whole cycle."""
    cycle = workloads.cycle_length(client.workload)
    warmup = warm_up(client, cycle)
    digests = {}
    replayed = REPLAY_REQUESTS[client.workload]

    def keep_digest(req, out):
        if req.index < replayed:
            digests[req.index] = hashlib.sha256(out.encode("utf-8")).hexdigest()

    records, busy, k, wall0 = [], 0.0, 0, perf_counter()
    while (k < cycle or busy < seconds) and perf_counter() - wall0 < HARD_CAP_S and (cap is None or k < cap):
        record = client.run(client.request(k), keep_digest)
        records.append(record)
        busy += record["latency_s"]
        k += 1
    return {"records": records, "warmup": warmup, "digests": digests, "cycle": cycle}


def replay(client: Client, count: int) -> dict:
    digests = {}
    for k in range(count):
        req = client.request(k)
        _, _, out, _ = execute(client.cli.main, req.argv)
        digests[k] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    return {"digests": digests}


def trace(client: Client, count: int, spans_path: Path) -> dict:
    requests = [client.request(k) for k in range(count)]
    client.run(requests[0])  # warm-up, outside both passes
    untraced = [client.run(req) for req in requests]
    tracer = tracing.Tracer()
    wrapped = tracing.install(tracer)
    traced = []
    for req in requests:
        tracer.request_id = req.index
        traced.append(client.run(req))
    tracer.write(spans_path)
    return {"records": untraced + traced, "wrapped": wrapped,
            "per_layer": per_layer_metrics(tracer, untraced, traced)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(t: tracing.Tracer, untraced: list[dict], traced: list[dict]) -> dict:
    """Every per-layer metric as (value, unit); layers a workload never calls read 0."""
    samples, verdicts, cases = t.units["samples"], t.units["verdicts"], t.units["cases"]
    m = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (t.layer_self_s(layer), "s")
        m[f"{layer}.errors"] = (t.errors[layer], "count")
    for name in ("linalg.eigvals_hermitian", "fidelity.DensityMatrix"):
        m[f"{name}.calls"] = (t.calls(name), "count")
        m[f"{name}.self_s"] = (t.self_s(name), "s")
    for name in ("linalg.eigvals_hermitian", "linalg.as_matrix4", "linalg.trace_product", "fidelity.DensityMatrix"):
        m[f"{name}.per_sample"] = (_ratio(t.calls(name), samples), "calls/sample")
    for name in ("states.bloch_from_density", "cli.main", "dynamics.classify", "validate.run_validation"):
        m[f"{name}.self_s"] = (t.self_s(name), "s")
    m["cli.bytes_out"] = (sum(r["bytes"] for r in traced), "bytes")
    m["dynamics.evolve_closed.per_verdict"] = (
        _ratio(t.nested.get(("dynamics.evolve_closed", "dynamics.classify"), 0), verdicts), "calls/verdict")
    for name in ("linalg.expm", "dynamics.evolve_oracle"):
        m[f"{name}.calls"] = (t.calls(name), "count")
        m[f"{name}.self_s"] = (t.self_s(name), "s")
    m["dynamics.evolve_oracle.per_case"] = (
        _ratio(t.nested.get(("dynamics.evolve_oracle", "validate.run_validation"), 0), cases), "calls/case")
    for name in ("model.propagator", "model.spectrum", "dynamics.evolve_closed"):
        m[f"{name}.self_us_per_call"] = (1e6 * _ratio(t.self_s(name), t.calls(name)), "us")
    plain = sum(r["latency_s"] for r in untraced)
    overhead = sum(r["latency_s"] for r in traced) - plain
    m["trace.samples"] = (samples, "count")
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_pct"] = (100.0 * _ratio(overhead, plain), "%")
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("measure", "trace", "replay"))
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("seconds", type=float)
    ap.add_argument("workdir", type=Path)
    ap.add_argument("out", type=Path)
    ap.add_argument("--requests", type=int, default=None, help="cap on requests (self-test runs)")
    ns = ap.parse_args(argv)
    client = Client(ns.workload, ns.seed, ns.workdir)
    if ns.mode == "measure":
        result = measure(client, ns.seconds, ns.requests)
    elif ns.mode == "replay":
        result = replay(client, ns.requests or REPLAY_REQUESTS[ns.workload])
    else:
        count = ns.requests or TRACE_REQUESTS[ns.workload]
        result = trace(client, count, ns.workdir / "spans.jsonl")
    import numpy

    result["numpy"] = numpy.__version__
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ns.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
