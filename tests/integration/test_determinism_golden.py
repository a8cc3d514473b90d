"""Golden determinism regression test.

The library promises bit-for-bit reproducibility: identical configs
and seeds must produce identical results on any machine, forever.
These pinned values were computed once; any change to them means the
deterministic contract broke (a new draw inserted into a shared
stream, a changed iteration order, a different tie-break...) and must
be treated as a breaking change, not a test update.
"""

import hashlib

import pytest

import repro
from repro.baselines.gdi import GDIController
from repro.core.system import SystemSpec
from repro.experiments.chaos import ChaosConfig, ChaosSimulation
from repro.flows.group import AnycastGroup
from repro.flows.traffic import WorkloadSpec
from repro.network.topologies import MCI_GROUP_MEMBERS, MCI_SOURCES, mci_backbone

#: (requests, admitted, mean_attempts) for seed 20010405, lambda=25,
#: warmup 50 s, measure 200 s on the default MCI setup with R=2.
GOLDEN = {
    "ED": (5165, 4593, 1.2391093901258472),
    "WD/D+H": (5165, 5089, 1.0315585672797707),
    "WD/D+B": (5165, 5156, 1.0029041626331057),
    "SP": (5165, 3774, 1.0),
    "GDI": (5165, 5165, 1.0),
}


@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_golden_results_are_stable(algorithm):
    result = repro.quick_run(
        algorithm,
        retrials=2,
        arrival_rate=25.0,
        warmup_s=50.0,
        measure_s=200.0,
        seed=20010405,
    )
    requests, admitted, mean_attempts = GOLDEN[algorithm]
    assert result.requests == requests
    assert result.admitted == admitted
    assert result.mean_attempts == pytest.approx(mean_attempts, abs=1e-12)


#: GDI under overload (lambda=50, same seed and windows): requests,
#: admitted, and the SHA-256 of ``repr`` of the ``(flow_id, path)``
#: list of every flow GDI admitted (warm-up included), in admission
#: order.  Unlike the lambda=25 pin, GDI blocks here, so the pin covers
#: the feasibility filter and the choice among equally near members.
GDI_OVERLOAD_GOLDEN = (
    10015,
    7232,
    "88a3eff2c0f8fc8ec75cb5f46c8fe975d33b839da189a386c110cc15e724288d",
)


def test_gdi_overload_paths_are_stable(monkeypatch):
    chosen = []
    admit = GDIController.admit

    def recording_admit(self, request, now=None):
        result = admit(self, request, now)
        if result.flow is not None:
            chosen.append((result.flow.flow_id, result.flow.path))
        return result

    monkeypatch.setattr(GDIController, "admit", recording_admit)
    result = repro.quick_run(
        "GDI",
        retrials=2,
        arrival_rate=50.0,
        warmup_s=50.0,
        measure_s=200.0,
        seed=20010405,
    )
    digest = hashlib.sha256(repr(chosen).encode()).hexdigest()
    assert (result.requests, result.admitted, digest) == GDI_OVERLOAD_GOLDEN


def test_workload_identical_across_systems():
    """Common random numbers: every system sees the same arrivals."""
    request_counts = {
        algorithm: GOLDEN[algorithm][0] for algorithm in GOLDEN
    }
    assert len(set(request_counts.values())) == 1


#: (requests, admitted, mean_attempts, signaling_messages,
#: retransmissions, orphans_collected) of the signalled plane for the
#: same seed, arrivals and windows, keyed by (algorithm, loss rate).
SIGNALLED_GOLDEN = {
    ("ED", 0.0): (5165, 4596, 1.2460793804453068, 48072, 0, 0),
    ("ED", 0.05): (5165, 4525, 1.2627299128751222, 48977, 1685, 713),
    ("WD/D+B", 0.0): (5165, 5156, 1.0032913843175217, 40624, 0, 0),
    ("WD/D+B", 0.05): (5165, 5134, 1.011423039690221, 41127, 1404, 676),
}


@pytest.mark.parametrize("algorithm, loss_rate", sorted(SIGNALLED_GOLDEN))
def test_signalled_golden_results_are_stable(algorithm, loss_rate):
    result = ChaosSimulation(
        network_factory=mci_backbone,
        system_spec=SystemSpec(algorithm, retrials=2),
        workload=WorkloadSpec(
            arrival_rate=25.0,
            sources=MCI_SOURCES,
            group=AnycastGroup("A", MCI_GROUP_MEMBERS),
        ),
        chaos=ChaosConfig(loss_rate=loss_rate),
        warmup_s=50.0,
        measure_s=200.0,
        seed=20010405,
    ).run()
    requests, admitted, mean_attempts, messages, retransmissions, orphans = (
        SIGNALLED_GOLDEN[(algorithm, loss_rate)]
    )
    assert result.requests == requests
    assert result.admitted == admitted
    assert result.mean_attempts == pytest.approx(mean_attempts, abs=1e-12)
    assert result.signaling_messages == messages
    assert result.retransmissions == retransmissions
    assert result.orphans_collected == orphans
