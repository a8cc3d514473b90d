"""Repetitions of one workload inside one fresh interpreter.

Started by ``run.py``, never imported by it.  The first simulation is
built right after the imports, and ``setup_s`` is the time from the
parent's spawn (``--t0``, a ``perf_counter`` reading, which on Linux is
the system-wide monotonic clock) until that object exists.  Then
simulations with the same seed run one after the other, each
timed over its whole ``run()``, and each output is checked.  Reps
continue until ``--deadline`` (also a ``perf_counter`` reading) and
number at least ``--min-reps``.  One JSON
object goes to standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def hook_decisions(built: workloads.Built) -> list:
    """Record ``(flow id, destination or None, attempts)`` per decision."""
    decisions: list = []
    append = decisions.append
    record = built.metrics.record_decision

    def record_decision(result: Any) -> None:
        flow = result.flow
        append((result.request.flow_id,
                None if flow is None else flow.destination, result.attempts))
        record(result)

    built.metrics.record_decision = record_decision
    return decisions


def check_output(built: workloads.Built, result: Any, decisions: list) -> list[str]:
    """Every failed output check of one finished run, as text."""
    from repro import invariants

    failures = []
    try:
        invariants.check_network(built.network)
    except AssertionError as exc:
        failures.append(f"check_network: {exc}")
    admitted = sum(1 for d in decisions if d[1] is not None)
    blocked = len(decisions) - admitted
    metrics = built.metrics
    if metrics.admitted != admitted or metrics.requests != admitted + blocked:
        failures.append(
            f"requests {metrics.requests} != admitted {admitted} + blocked {blocked}"
        )
    if result.requests != len(decisions) or not decisions:
        failures.append(f"{result.requests} requests but {len(decisions)} decisions")
    if built.signalled:
        if result.leaked_bps != 0.0:
            failures.append(f"leaked {result.leaked_bps} bps after drain")
        try:
            invariants.check_drained(built.network)
        except AssertionError as exc:
            failures.append(f"check_drained: {exc}")
    return failures


def digest(decisions: list) -> str:
    return hashlib.sha256(repr(decisions).encode()).hexdigest()[:32]


def one_rep(built: workloads.Built, traced: bool, spans_path: str) -> dict:
    decisions = hook_decisions(built)
    tracer = tracing.Tracer() if traced else None
    restore = tracing.instrument(tracer, built) if tracer is not None else None
    start = time.perf_counter()
    try:
        result = built.simulation.run()
        run_s = time.perf_counter() - start
    finally:
        if restore is not None:
            restore()
    arrivals = built.decisions_made()
    out = {
        "arrivals": arrivals,
        "run_s": run_s,
        "us_per_arrival": 1e6 * run_s / arrivals,
        "digest": digest(decisions),
        "admission_probability": result.admission_probability,
        "attempts_per_request": result.mean_attempts,
        "failures": check_output(built, result, decisions),
    }
    if built.signalled:
        out["messages_per_admitted"] = result.messages_per_admitted
        out["latency_ms"] = 1e3 * result.mean_admission_latency_s
    if tracer is not None:
        out["counters"] = tracing.exact_counters(tracer, built)
        out["timings"] = tracing.timed_layers(tracer, built)
        out["split"] = tracing.layer_split(tracer, arrivals, run_s)
        out["decision_samples"] = len(tracer.decision_samples)
        if spans_path:
            tracer.write(spans_path)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--deadline", type=float, default=0.0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--system", default="", help="ALGORITHM:R override")
    parser.add_argument("--spans", default="", help="write the first rep's spans here")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    algorithm, _, retrials = args.system.partition(":")
    built = workloads.build(workload, args.seed, algorithm, int(retrials or 0))
    setup_s = time.perf_counter() - args.t0
    reps = []
    i = 0
    while i < args.min_reps or time.perf_counter() < args.deadline:
        if i:
            built = workloads.build(workload, args.seed, algorithm, int(retrials or 0))
        reps.append(one_rep(built, bool(args.trace), args.spans if i == 0 else ""))
        # Free the finished simulation (it holds reference cycles) so
        # peak memory is one simulation's, whatever the number of reps.
        built = None
        gc.collect()
        i += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_kb / 1024.0, "reps": reps}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
