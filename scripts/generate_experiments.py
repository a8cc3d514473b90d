#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table/figure.

Runs the whole evaluation at the benchmark scale (offered loads equal
to the paper's; lifetimes rescaled 180 s -> 30 s for fast transients)
and writes the measured series next to the paper's reported
expectations.  Takes ~20-30 minutes.

Usage:  python scripts/generate_experiments.py [output_path]
"""

from __future__ import annotations

import sys
import time

sys.path.insert(0, "benchmarks")  # reuse the benchmark configuration

from conftest import RATES, bench_config  # noqa: E402

from repro.experiments.figures import figure3, figure4, figure5, figure6, figure7  # noqa: E402
from repro.experiments.tables import table1, table2  # noqa: E402

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of *Distributed Admission Control for Anycast
Flows with QoS Requirements* (Xuan & Jia, ICDCS 2001), regenerated by
this repository.  Commands:

```bash
pytest benchmarks/ --benchmark-only        # asserts every observation below
repro-anycast all                          # paper-scale regeneration
python scripts/generate_experiments.py     # rebuilds this file
```

**Scale note.**  Measured values below use the benchmark configuration:
the paper's offered loads exactly (lambda x 6, lifetime 180 s -> 30 s —
admission probability depends only on lambda/mu), one replication,
600 s measurement windows.  Columns are labelled with the *paper's*
lambda.  Absolute values differ from the paper's because the exact MCI
edge list was never published (see DESIGN.md); the comparisons below
therefore focus on *shape*: orderings, trends and crossovers.

"""

PAPER_LAMBDAS = [rate / 6.0 for rate in RATES]


def fmt_series_table(title: str, x_values, series: dict) -> str:
    lines = [f"### Measured: {title}", "", "| series | " + " | ".join(
        f"lambda={x:g}" for x in x_values) + " |"]
    lines.append("|" + "---|" * (len(x_values) + 1))
    for label, values in series.items():
        lines.append(
            f"| `{label}` | " + " | ".join(f"{v:.4f}" for v in values) + " |"
        )
    lines.append("")
    return "\n".join(lines)


def main() -> None:
    output_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    config = bench_config()
    sections = [HEADER]
    started = time.time()

    def note(msg):
        print(f"[{time.time() - started:7.1f}s] {msg}", file=sys.stderr)

    # ------------------------------------------------------------- figures
    figure_specs = [
        (
            figure3,
            "Figure 3 — AP of `<ED,R>` vs arrival rate",
            "AP falls with lambda and rises with R; the R=1->2 step is the "
            "big one and R=4 is nearly identical to R=5 (observations 1-2).",
        ),
        (
            figure4,
            "Figure 4 — AP of `<WD/D+H,R>` vs arrival rate",
            "Same trends as Figure 3 at a higher level: history-informed "
            "selection starts better, so retrials add less.  (Our R=1 row "
            "can dip below ED's at heavy load — distance bias herds traffic "
            "when no retrial corrects it; R>=2 flips the comparison, "
            "consistent with the paper's recommended R=2.)",
        ),
        (
            figure5,
            "Figure 5 — AP of `<WD/D+B,R>` vs arrival rate",
            "Same trends again, highest single-try level of the three; "
            "the least R-sensitive system (observation 3).",
        ),
        (
            figure6,
            "Figure 6 — system comparison vs baselines",
            "All systems ~1 at lambda=5; under load SP is worst, GDI best, "
            "and the three DAC systems sit between, with WD/D+H and WD/D+B "
            "above ED and close to GDI (the paper's headline).",
        ),
        (
            figure7,
            "Figure 7 — average number of retrials (overhead)",
            "Retrials grow with load; ED pays the most, WD/D+B the least "
            "(better information, fewer corrected mistakes).",
        ),
    ]
    for func, title, expectation in figure_specs:
        note(f"running {title.split(' —')[0]} ...")
        result = func(config)
        sections.append(f"## {title}\n")
        sections.append(f"**Paper expectation.** {expectation}\n")
        series = {
            label: values for label, values in result.series.items()
        }
        sections.append(
            fmt_series_table(result.title, PAPER_LAMBDAS, series)
        )

    # -------------------------------------------------------------- tables
    for func, title in (
        (table1, "Table 1 — analysis vs simulation, `<ED,1>`"),
        (table2, "Table 2 — analysis vs simulation, `SP`"),
    ):
        note(f"running {title.split(' —')[0]} ...")
        result = func(config, arrival_rates=RATES)
        sections.append(f"## {title}\n")
        sections.append(
            "**Paper expectation.** Analysis and simulation agree almost "
            "exactly (paper gap < 0.01 absolute), validating the "
            "link-independence and thinning approximations.\n"
        )
        sections.append(
            fmt_series_table(
                result.table_id,
                PAPER_LAMBDAS,
                {
                    "analysis": list(result.analysis),
                    "simulation": list(result.simulation),
                },
            )
        )
        sections.append(
            f"Measured max |analysis − simulation| = "
            f"**{result.max_absolute_gap:.4f}**.\n"
        )

    # ------------------------------------------------------- paper numbers
    sections.append("""## Paper-reported absolute values (for reference)

The paper prints absolute numbers only in Tables 1-2 (its figures are
plots).  On the authors' (unpublished) MCI wiring:

| system | method | lambda=5 | lambda=20 | lambda=35 | lambda=50 |
|---|---|---|---|---|---|
| `<ED,1>` | analysis | 1.000000 | 0.833933 | 0.584068 | 0.435654 |
| `<ED,1>` | simulation | 1.000000 | 0.837443 | 0.591091 | 0.439993 |
| `SP` | analysis | 1.000000 | 0.771044 | 0.444341 | 0.311417 |
| `SP` | simulation | 1.000000 | 0.781039 | 0.451598 | 0.317420 |

Our topology reproduces the same *relations* (ED above SP everywhere
under load, both decreasing, analysis ~= simulation) at somewhat lower
absolute APs — our reconstructed MCI graph evidently has slightly less
route diversity on the hot paths than the original.

## Shape checklist (asserted by `pytest benchmarks/ --benchmark-only`)

| # | Paper claim | Where asserted | Holds |
|---|---|---|---|
| 1 | AP decreases with lambda for every system | fig3-6 benches | yes |
| 2 | AP increases with R; R=1->2 dominates; R~5 saturates | fig3-5 benches | yes |
| 3 | Lower-AP systems are more sensitive to R | fig5 obs-3 bench | yes |
| 4 | SP worst, GDI best; all systems equal at light load | fig6 bench | yes |
| 5 | WD/D+H and WD/D+B beat ED; both close to GDI | fig6 bench | yes |
| 6 | Retrial overhead: ED > WD/D+H > WD/D+B | fig7 bench | yes |
| 7 | Analysis ~= simulation for `<ED,1>` and `SP` | tab1/tab2 benches | yes |

## Ablations beyond the paper

| Ablation | Bench | Finding |
|---|---|---|
| alpha sweep of WD/D+H (0..1) | `test_ablation_alpha.py` | alpha=1 degrades to WD/D; any alpha<1 helps; overhead drops with history |
| Distance vs history decomposition | `test_ablation_distance_only.py` | ED <= WD/D <= WD/D+H: both terms contribute |
| Topology robustness (NSFNET, Waxman) | `test_ablation_topologies.py` | SP <= DAC <= GDI ordering survives rewiring |
| Group size K in {1,3,5} | `test_ablation_group_size.py` | AP non-decreasing in K; K=1 equalizes all algorithms (unicast) |
| Retrial discipline | `test_ablation_retrial.py` | excluding failed destinations dominates resampling |
| Erlang-B vs UAA in the fixed point | `test_ablation_erlang_vs_uaa.py` | end-to-end AP gap < 2e-3; UAA ~16x faster per evaluation |
| WD/D+B information staleness | `test_ablation_staleness.py` | fresh >= stale; advantage erodes with snapshot age |
| Hybrid WD/D+H+B vs parents | `test_ablation_hybrid.py` | hybrid has the highest AP and the lowest retrial overhead of the family |
| Hot-spot demand (60% on two sources) | `test_ablation_hotspot.py` | the SP < ED < informed ordering survives skewed demand |
| Per-source fairness (Jain index) | `test_ablation_fairness.py` | randomized selection protects poorly-placed sources; SP's worst source drops to ~0.22 AP |

## Signalling robustness (chaos scenario)

The paper evaluates the DAC protocol over a perfectly reliable
signalling plane.  The chaos scenario
(`repro.experiments.chaos`) measures the same admission model when
PATH/RESV/TEAR messages are dropped, delayed and duplicated, and the
protocol defends itself with timeouts, retransmissions and soft-state
leases.  Reproduce the figure (blocking probability and mean signalled
admission latency vs. loss rate, `<ED,2>` vs `<WD/D+B,2>`):

```sh
repro-anycast chaos --quick          # seconds; drop --quick for paper scale
repro-anycast chaos --quick --plot   # plus ASCII line charts
REPRO_CHECK_INVARIANTS=1 PYTHONPATH=src python -m pytest tests/experiments/test_chaos.py
```

A chaos run is not a separate simulator: it is the one simulation
class, `AnycastSimulation`, built with a `ChaosConfig`.  The AC-routers run
the same Figure 1 loop as in every other run, over the signalled
reservation engine instead of the atomic one, and the run returns the
same `SimulationResult` with its signalling fields filled in
(messages, retransmissions, timeouts, collected orphans, leaked
bandwidth).  `ChaosSimulation` builds such a run with the scenario's
default windows.  Seeded results for `<ED,2>` and `<WD/D+B,2>` at 0%
and 5% loss are pinned in `tests/integration/test_determinism_golden.py`.

**Impairment knobs** (`ChaosConfig`): `loss_rate` (Bernoulli per
transmission, default sweep 0–20%), `extra_delay_s` (uniform extra
delivery delay), `duplicate_rate`.  Each impairment draws from its own
named stream (`signaling.loss` / `signaling.delay` /
`signaling.duplicate`), so runs are deterministic under a fixed seed
and a zero-rate channel is **bit-identical** to no channel at all.

**Timeout/backoff defaults**: per-hop timers start at 50 ms and double
per retransmission (capped at 1 s, ±10% seeded jitter), with at most 4
retransmissions per hop transfer before the sender gives up — a
PATH-phase give-up behaves like a fail-fast `PathErr`; a RESV-phase
give-up tears the partial reservations back down.

**Lease/GC semantics**: every installed per-link reservation is a
soft-state lease (TTL 60 s, refreshed every 20 s by the flow's
source; refreshes are modelled reliable and charged to the message
totals).  A sweep every 10 s collects leases that stopped being
refreshed — the orphans stranded by lost `Resv`/`Tear` messages — so
no bandwidth leaks past one TTL.  With `REPRO_CHECK_INVARIANTS=1`
every sweep asserts lease coverage and every run asserts a zero-leak
full drain.

Qualitative findings (asserted by `tests/experiments/test_chaos.py`):
blocking probability degrades monotonically with loss rate; admission
latency grows (timeout-dominated); retransmissions, timeouts and
collected orphans appear under loss and are all zero without it; and
leaked bandwidth is exactly zero at every loss rate.

## Substrate micro-benchmarks (`scripts/bench.py`)

The simulation substrate (event engine, link-state accounting, the
fixed-point solver) has its own benchmark harness, separate from the
figure/table benches above:

```sh
PYTHONPATH=src python scripts/bench.py            # full suite, 3 repeats
PYTHONPATH=src python scripts/bench.py --quick    # ~5x smaller workloads
```

The suite measures: chained and hold-pattern event dispatch on the
binary-heap engine, route reservation/release churn, the WD/D+B
bottleneck scan, the reduced-load fixed point over a 40-point offered-
load grid, and an end-to-end WD/D+B simulation.  Each metric is a rate
(higher is better); the best of `--repeats` runs is kept to suppress
scheduler noise.  Two control-plane cost entries (`signaling_loss0`,
`signaling_loss5`) report admitted flows per 1000 signalling messages
in the chaos scenario at 0% and 5% loss — deterministic ratios rather
than wall-clock rates, so protocol changes that inflate message or
retransmission counts per admitted flow trip the gate exactly.

Results live in `BENCH_substrate.json` at the repo root with three
sections: `before` (the tree prior to the fast-path substrate work),
`after` (the committed tree), and per-metric `speedup` with a
geometric mean.  Two workflows:

* **Regression gate** — `python scripts/bench.py --check` re-runs the
  suite and exits non-zero if any metric regresses more than
  `--tolerance` (default 20%) against the committed `after` rates.
  CI runs this in `--quick` mode; shared runners are noisy, so treat
  a red gate as "re-run locally before worrying".
* **Refreshing the baseline** — after intentional performance work,
  `python scripts/bench.py --update` rolls the committed `after` into
  `before` and records the new rates.  Commit the updated
  `BENCH_substrate.json` with the change that earned it.

`benchmarks/test_substrate_microbench.py` runs the same operations
under pytest-benchmark for profiling-grade numbers.
""")

    text = "\n".join(sections)
    with open(output_path, "w") as handle:
        handle.write(text)
    note(f"wrote {output_path} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
