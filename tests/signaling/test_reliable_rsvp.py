"""RSVP-lite reliability tests: loss recovery, teardown, soft-state GC.

Uses a test-local ``ScriptedChannel`` that drops exact transmission
indices, so every scenario (which copy is lost, which TEAR leg
vanishes) is constructed deterministically rather than sampled.
"""

import pytest

from repro.network.routing import Route
from repro.network.topologies import line
from repro.signaling.rsvp import RsvpSession, SignalledReservationEngine
from repro.signaling.softstate import LeaseTable

from tests.signaling.perfect_plane import perfect_plane, retransmit_policy

ROUTE = Route(source=0, destination=3, path=(0, 1, 2, 3))


@pytest.fixture
def network():
    return line(4, capacity_bps=64_000.0, propagation_delay_s=0.001)


class ScriptedChannel:
    """Drops the transmissions whose 0-based index is scripted."""

    def __init__(self, simulator, drop_indices=()):
        self._simulator = simulator
        self._drop = set(drop_indices)
        self.sent = 0
        self.dropped = 0

    def send(self, delay_s, deliver):
        index = self.sent
        self.sent += 1
        if index in self._drop:
            self.dropped += 1
            return
        self._simulator.schedule(delay_s, deliver)


#: Run bound covering every retransmission schedule below (at most
#: 50 + 100 + 200 + 400 ms of timeouts), before the perfect plane's
#: leases expire.
SETTLE_S = 5.0


def run_robust(simulator, network, channel, **plane):
    outcomes = []
    session = RsvpSession(
        simulator,
        network,
        ROUTE,
        "f1",
        64_000.0,
        outcomes.append,
        **perfect_plane(simulator, network, channel=channel, **plane),
    )
    session.start()
    simulator.run(until=SETTLE_S)
    assert len(outcomes) == 1
    return outcomes[0]


class TestLossRecovery:
    def test_lost_path_is_retransmitted(self, simulator, network):
        # Transmission 0 is the first PATH hop; drop it once.
        channel = ScriptedChannel(simulator, drop_indices={0})
        outcome = run_robust(simulator, network, channel)
        assert outcome.success
        assert outcome.retransmissions == 1
        # The timeout (50 ms) dominates the hop delay budget.
        assert outcome.latency_s > 0.05
        for u, v in ((0, 1), (1, 2), (2, 3)):
            assert network.link(u, v).holds("f1")

    def test_lost_resv_is_retransmitted(self, simulator, network):
        # 3 PATH transmissions (0, 1, 2); index 3 is the first RESV leg.
        channel = ScriptedChannel(simulator, drop_indices={3})
        outcome = run_robust(simulator, network, channel)
        assert outcome.success
        assert outcome.retransmissions == 1

    def test_messages_include_retransmissions(self, simulator, network):
        channel = ScriptedChannel(simulator, drop_indices={0, 1})
        outcome = run_robust(simulator, network, channel)
        assert outcome.success
        # 6 protocol messages + 2 retransmitted copies.
        assert outcome.messages == 8
        assert outcome.retransmissions == 2


class TestGiveUp:
    def test_path_loss_exhausts_retries(self, simulator, network):
        # Kill the first PATH hop and all its retransmissions.
        channel = ScriptedChannel(simulator, drop_indices={0, 1, 2})
        outcome = run_robust(
            simulator,
            network,
            channel,
            retransmit=retransmit_policy(max_retransmits=2),
        )
        assert not outcome.success
        assert outcome.timed_out
        assert outcome.failed_link == (0, 1)
        assert network.total_reserved_bps() == 0.0

    def test_resv_loss_tears_downstream(self, simulator, network):
        leases = LeaseTable(simulator, network, ttl_s=5.0, sweep_interval_s=1.0)
        # Indices 0-2: PATH sweep.  3 and 4: first RESV leg (2->3... no:
        # RESV travels 3->2 first) and its retransmission -- kill both,
        # so node 3's upstream reservation (2,3) is installed but the
        # session gives up.  The TEAR then releases it.
        channel = ScriptedChannel(simulator, drop_indices={3, 4})
        outcome = run_robust(
            simulator,
            network,
            channel,
            retransmit=retransmit_policy(max_retransmits=1),
            leases=leases,
        )
        assert not outcome.success
        assert outcome.timed_out
        simulator.run()  # let tear + lease machinery drain
        assert network.total_reserved_bps() == 0.0
        assert leases.live_leases() == 0

    def test_lost_tear_is_collected_by_lease(self, simulator, network):
        leases = LeaseTable(simulator, network, ttl_s=5.0, sweep_interval_s=1.0)
        # Let the first RESV leg land (index 3 reserves (2,3) at node 3,
        # index 3 delivers to node 2, which reserves (1,2)), then kill
        # node 2's onward transfer (indices 4, 5).  Node 2 releases
        # (1,2) itself and tears downstream -- but the TEAR (index 6)
        # is lost too, so (2,3) stays stranded until its lease expires.
        channel = ScriptedChannel(simulator, drop_indices={4, 5, 6})
        outcomes = []
        session = RsvpSession(
            simulator,
            network,
            ROUTE,
            "f1",
            64_000.0,
            outcomes.append,
            channel=channel,
            retransmit=retransmit_policy(max_retransmits=1),
            leases=leases,
        )
        session.start()
        simulator.run(until=1.0)  # bounded: before the TTL expires
        assert len(outcomes) == 1 and not outcomes[0].success
        assert network.link(2, 3).holds("f1")  # stranded right now
        simulator.run()  # ... until the collector sweeps
        assert network.total_reserved_bps() == 0.0
        assert leases.orphans_collected == 1
        assert leases.reclaimed_bps == pytest.approx(64_000.0)


class TestDeduplication:
    class DuplicatingChannel:
        """Delivers every transmission twice, back to back."""

        def __init__(self, simulator):
            self._simulator = simulator
            self.sent = 0

        def send(self, delay_s, deliver):
            self.sent += 1
            self._simulator.schedule(delay_s, deliver)
            self._simulator.schedule(delay_s, deliver)

    def test_duplicates_do_not_double_reserve(self, simulator, network):
        channel = self.DuplicatingChannel(simulator)
        outcome = run_robust(simulator, network, channel)
        assert outcome.success
        assert outcome.retransmissions == 0
        # Exactly one reservation per link despite double delivery.
        for u, v in ((0, 1), (1, 2), (2, 3)):
            assert network.link(u, v).reserved_bps == pytest.approx(64_000.0)
        assert outcome.messages == 6  # duplicates are not new messages


class TestRobustEngine:
    def test_release_tears_through_channel(self, simulator, network):
        channel = ScriptedChannel(simulator, drop_indices=set())
        plane = perfect_plane(simulator, network, channel=channel)
        engine = SignalledReservationEngine(simulator, network, **plane)
        outcomes = []
        engine.reserve(ROUTE, "f", 64_000.0, outcomes.append)
        simulator.run(until=SETTLE_S)
        assert outcomes[0].success
        engine.release(ROUTE.path, "f")
        simulator.run()
        assert network.total_reserved_bps() == 0.0
        assert engine.tear_messages == 3
        assert plane["leases"].orphans_collected == 0

    def test_lost_release_tear_falls_back_to_lease(self, simulator, network):
        leases = LeaseTable(simulator, network, ttl_s=5.0, sweep_interval_s=1.0)
        channel = ScriptedChannel(simulator, drop_indices=set())
        engine = SignalledReservationEngine(
            simulator,
            network,
            channel=channel,
            retransmit=retransmit_policy(),
            leases=leases,
        )
        outcomes = []
        engine.reserve(ROUTE, "f", 64_000.0, outcomes.append)
        simulator.run(until=1.0)  # bounded: before the TTL expires
        assert outcomes[0].success
        # Drop the second TEAR leg: links (1,2) and (2,3) stay held.
        channel._drop.add(channel.sent + 1)
        engine.release(ROUTE.path, "f")
        simulator.run()
        assert network.total_reserved_bps() == 0.0  # lease reclaimed the rest
        assert leases.orphans_collected == 1
        assert engine.timeouts == 0  # tears are unacknowledged
