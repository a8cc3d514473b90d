"""The benchmark's workloads and how each one is built.

Every workload runs on the MCI backbone with the paper's anycast group
and source routers.  Flow lifetimes are cut from the paper's 180 s to
30 s and arrival rates multiplied by 6, which keeps the offered load
(lambda / mu) of the paper's x-axis while simulating 6x fewer seconds.

A build returns a :class:`Built`: the simulation object plus the
handles the benchmark measures.  Only public constructors of the
program are used, so the same file measures any commit whose public
interfaces match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Simulated seconds discarded before the measurement window (one mean
#: flow lifetime) and the window itself.  A long window keeps the
#: seed-to-seed spread of the simulated metrics small.
WARMUP_S = 30.0
MEASURE_S = 90.0
MEAN_LIFETIME_S = 30.0
#: The paper's arrival rates are per 180 s lifetime; x6 for 30 s.
RATE_SCALE = 6.0


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    retrials: int
    paper_rate: float
    signalled: bool
    loss_rate: float

    @property
    def arrival_rate(self) -> float:
        return self.paper_rate * RATE_SCALE


#: Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("dac_heavy", "WD/D+B", 2, 50.0, False, 0.0),
        Workload("gdi_heavy", "GDI", 1, 50.0, False, 0.0),
        Workload("signalled_light", "ED", 2, 15.0, True, 0.05),
    )
}

#: Systems of the informational per-system table, on dac_heavy traffic.
TABLE_SYSTEMS: tuple[tuple[str, int], ...] = (
    ("SP", 1),
    ("ED", 2),
    ("WD/D+H", 2),
    ("WD/D+B", 2),
    ("GDI", 1),
)


@dataclass
class Built:
    """A ready-to-run simulation and the instances the benchmark reads."""

    simulation: Any
    simulator: Any
    network: Any
    metrics: Any
    traffic: Any
    #: Objects with ``admit``/``release``: the system (atomic runs) or
    #: the per-source signalled routers.
    deciders: list
    #: Controllers that own a selector (AC-routers, atomic or signalled).
    routers: list
    signalled: bool

    def decisions_made(self) -> int:
        """Admission decisions taken over the whole horizon."""
        return sum(d.requests_seen for d in self.deciders)

    def admitted_total(self) -> int:
        return sum(d.requests_admitted for d in self.deciders)


def build(workload: Workload, seed: int, algorithm: str = "", retrials: int = 0) -> Built:
    """Build ``workload`` (optionally with another system) at ``seed``."""
    from repro.core.system import SystemSpec
    from repro.flows.group import AnycastGroup
    from repro.flows.traffic import WorkloadSpec
    from repro.network.topologies import (
        MCI_GROUP_MEMBERS,
        MCI_SOURCES,
        mci_backbone,
    )

    spec = SystemSpec(algorithm or workload.algorithm, retrials=retrials or workload.retrials)
    traffic_spec = WorkloadSpec(
        arrival_rate=workload.arrival_rate,
        sources=MCI_SOURCES,
        group=AnycastGroup("A", MCI_GROUP_MEMBERS),
        mean_lifetime_s=MEAN_LIFETIME_S,
    )
    if workload.signalled:
        from repro.experiments.chaos import ChaosConfig, ChaosSimulation

        sim = ChaosSimulation(
            network_factory=mci_backbone,
            system_spec=spec,
            workload=traffic_spec,
            chaos=ChaosConfig(loss_rate=workload.loss_rate),
            warmup_s=WARMUP_S,
            measure_s=MEASURE_S,
            seed=seed,
        )
        routers = [sim.routers[s] for s in MCI_SOURCES]
        return Built(sim, sim.simulator, sim.network, sim.metrics, sim.traffic,
                     routers, routers, True)
    from repro.sim.simulation import AnycastSimulation

    sim = AnycastSimulation(
        network_factory=mci_backbone,
        system_spec=spec,
        workload=traffic_spec,
        warmup_s=WARMUP_S,
        measure_s=MEASURE_S,
        seed=seed,
    )
    routers = []
    if spec.is_distributed:
        routers = [sim.system.controller_for(s) for s in MCI_SOURCES]
    return Built(sim, sim.simulator, sim.network, sim.metrics, sim.traffic,
                 [sim.system], routers, False)
