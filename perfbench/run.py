"""Admission-decision benchmark: host cost per arrival on three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dac_heavy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload dac_heavy --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --record-reference

Each workload is a discrete-event simulation whose arrivals are an open
Poisson process in simulated time; on the host it is a batch job, so the
benchmark reports host work per request at a stated offered load.  For
``--seconds`` it starts fresh interpreters one after the other (no pool,
no threads), each running ``rep.py``: set-up, then a few simulations with
the same seed.  Timings are medians over all of them.  Every simulation's
output is checked (see README.md); the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced processes with traced ones, whose layers are wrapped from
outside the program (``tracing.py``), and reports the per-layer metrics;
on ``dac_heavy`` it also prints a per-system table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
#: Seeds whose decision digests reference.json records.
REFERENCE_SEEDS = range(1, 33)
PROCESS_TIMEOUT_S = 150.0
#: Host seconds of simulations per fresh process; several processes per
#: run give several set-up samples.
PROCESS_SECONDS = 6.0

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

#: Metric names, units and bounds: the benchmark's own definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class Run:
    """Everything the processes of one benchmark run reported."""

    def __init__(self, workload: workloads.Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.setups: list[float] = []
        self.rss: list[float] = []
        self.reps: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, trace: bool, min_reps: int = 1, deadline: float = 0.0,
              system: str = "", spans: str = "") -> dict | None:
        """Run ``rep.py`` in a fresh interpreter and collect its reps."""
        command = [
            sys.executable, str(HERE / "rep.py"),
            "--workload", self.workload.name, "--seed", str(self.seed),
            "--min-reps", str(min_reps), "--deadline", repr(deadline),
            "--trace", str(int(trace)),
        ]
        if system:
            command += ["--system", system]
        if spans:
            command += ["--spans", spans]
        t0 = time.perf_counter()
        try:
            done = subprocess.run(
                command + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                text=True, timeout=PROCESS_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:
            self.attempted += min_reps
            self.failed += min_reps
            self.problems.append(f"process timed out after {PROCESS_TIMEOUT_S:.0f} s")
            return None
        if done.returncode != 0:
            self.attempted += min_reps
            self.failed += min_reps
            tail = done.stderr.strip().splitlines()[-3:]
            self.problems.append(f"process exited {done.returncode}: {' | '.join(tail)}")
            return None
        report = json.loads(done.stdout.strip().splitlines()[-1])
        self.attempted += len(report["reps"])
        for rep in report["reps"]:
            if rep["failures"]:
                self.failed += 1
                self.problems.extend(rep["failures"])
        if not system:
            self.setups.append(report["setup_s"])
            self.rss.append(report["peak_rss_mb"])
            (self.traced if trace else self.reps).extend(report["reps"])
        return report

    def check_digests(self) -> None:
        """Decisions must agree across every rep and with the reference."""
        digests = {rep["digest"] for rep in self.reps + self.traced}
        if len(digests) > 1:
            self.problems.append(f"decision digests differ between reps: {sorted(digests)}")
        recorded = load_reference().get(self.workload.name, {}).get(str(self.seed))
        if recorded is not None and digests and digests != {recorded}:
            self.problems.append(
                f"decision digest {sorted(digests)} != reference {recorded} for seed {self.seed}"
            )

    def check_counters(self) -> None:
        """Exact counters must repeat bit-for-bit in every traced rep."""
        first = self.traced[0]["counters"] if self.traced else None
        for rep in self.traced[1:]:
            if rep["counters"] != first:
                self.problems.append("exact counters differ between traced reps")
                return

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4g}, IQR {q1:.4g}..{q3:.4g}, n={len(values)}"


def process_deadline(run_deadline: float) -> float:
    return min(run_deadline, time.perf_counter() + PROCESS_SECONDS)


def keep_going(run: Run, run_deadline: float) -> bool:
    """Start another process unless the run's time is (nearly) used up."""
    if run.failed:
        return False
    return not run.reps or run_deadline - time.perf_counter() > PROCESS_SECONDS / 3


def untraced(run: Run, seconds: float) -> dict[str, float]:
    deadline = time.perf_counter() + seconds
    while keep_going(run, deadline):
        run.spawn(trace=False, deadline=process_deadline(deadline))
    return end_to_end(run)


def end_to_end(run: Run) -> dict[str, float]:
    if not run.reps:
        return {}
    first = run.reps[0]
    us = [rep["us_per_arrival"] for rep in run.reps]
    print(f"us_per_arrival: {spread(us)} us over simulations")
    print(f"setup_s: {spread(run.setups)} s over processes")
    print(f"peak_rss_mb: {spread(run.rss)} MB over processes")
    if run.workload.signalled:
        print(f"messages_per_admitted: {first['messages_per_admitted']:.6g} count")
        print(f"signalled_latency_ms: {first['latency_ms']:.6g} ms")
    return {
        "us_per_arrival": statistics.median(us),
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": statistics.median(run.rss),
        "admission_probability": first["admission_probability"],
        "attempts_per_request": first["attempts_per_request"],
    }


def traced(run: Run, seconds: float) -> dict[str, float]:
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{run.workload.name}-seed{run.seed}.csv.gz"
    deadline = time.perf_counter() + seconds
    while keep_going(run, deadline):
        run.spawn(trace=False, deadline=process_deadline(deadline))
        run.spawn(trace=True, min_reps=2, spans="" if run.traced else str(spans))
    if not run.traced or not run.reps:
        return {}
    run.check_counters()
    print(f"spans: {spans.relative_to(ROOT)}")
    untraced_us = statistics.median(rep["us_per_arrival"] for rep in run.reps)
    traced_us = statistics.median(rep["us_per_arrival"] for rep in run.traced)
    first = run.traced[0]
    metrics: dict[str, float] = {}
    for name, (numerator, denominator) in first["counters"].items():
        metrics[name] = numerator / denominator if denominator else 0.0
        print(f"{name}: {numerator}/{denominator} (exact)")
    for name in first["timings"]:
        values = [rep["timings"][name] for rep in run.traced]
        metrics[name] = statistics.median(values)
        print(f"{name}: {spread(values)} us")
    metrics["core.admission.decision_samples"] = first["decision_samples"]
    metrics["signaling.messages_per_admitted"] = first.get("messages_per_admitted", 0.0)
    metrics["signaling.latency_ms"] = first.get("latency_ms", 0.0)
    metrics["trace.overhead_ratio"] = traced_us / untraced_us
    print(f"traced us_per_arrival {traced_us:.4g} / untraced {untraced_us:.4g}")
    print_split("layer split, self us per arrival (traced)", [(run.workload.name, first)])
    if run.workload.name == "dac_heavy":
        rows = []
        for algorithm, retrials in workloads.TABLE_SYSTEMS:
            report = run.spawn(trace=True, system=f"{algorithm}:{retrials}")
            if report is not None:
                label = algorithm if algorithm in ("SP", "GDI") else f"<{algorithm},{retrials}>"
                rows.append((label, report["reps"][0]))
        print_split("per-system table on dac_heavy traffic (traced, informational)", rows)
    return metrics


def print_split(title: str, rows: list[tuple[str, dict]]) -> None:
    if not rows:
        return
    columns = list(rows[0][1]["split"])
    print(title)
    print(f"  {'system':<16}{'AP':>7}{'total':>8}" + "".join(f"{c:>{len(c) + 2}}" for c in columns))
    for label, rep in rows:
        cells = "".join(f"{rep['split'][c]:>{len(c) + 2}.1f}" for c in columns)
        print(f"  {label:<16}{rep['admission_probability']:>7.3f}"
              f"{rep['us_per_arrival']:>8.1f}{cells}")


def record_reference() -> int:
    """Rewrite reference.json from one simulation per workload and seed."""
    reference: dict[str, dict[str, str]] = {}
    for name, workload in workloads.WORKLOADS.items():
        reference[name] = {}
        for seed in REFERENCE_SEEDS:
            run = Run(workload, seed)
            run.spawn(trace=False)
            if not run.correct or not run.reps:
                print(f"{name} seed {seed}: {run.problems}", file=sys.stderr)
                return 1
            reference[name][str(seed)] = run.reps[0]["digest"]
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite {REFERENCE.name} and exit")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")

    run = Run(workloads.WORKLOADS[args.workload], args.seed)
    metrics = traced(run, args.seconds) if args.trace else untraced(run, args.seconds)
    run.check_digests()
    for problem in run.problems:
        print(f"FAILED CHECK: {problem}")
    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and metrics:
        print(f"FAILED CHECK: not measured: {', '.join(missing)}")
    print(json.dumps({
        "correct": run.correct and not missing,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
