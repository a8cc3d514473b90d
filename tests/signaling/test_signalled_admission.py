"""Tests for the DAC loop over the signalled engine.

:class:`repro.core.admission.ACRouter` runs the Figure 1 loop over
:class:`repro.signaling.rsvp.SignalledReservationEngine`: every attempt
is a PATH/RESV round trip of simulated time, and decisions arrive
through a callback.
"""

import pytest

from repro.core.admission import ACRouter
from repro.core.retrial import CounterRetrialPolicy
from repro.core.selection import EvenDistribution, SelectionContext
from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.flows.qos import QoSRequirement
from repro.network.routing import RouteTable
from repro.network.topologies import line, mci_backbone
from repro.signaling.rsvp import SignalledReservationEngine
from repro.sim.engine import Simulator
from repro.sim.random_streams import StreamFactory

from tests.signaling.perfect_plane import perfect_plane


def make_router(network, simulator, source=1, members=(0, 3), retrials=2, seed=7):
    group = AnycastGroup("G", members)
    routes = RouteTable(network, source, members)
    context = SelectionContext(network=network, routes=routes, group=group)
    return ACRouter(
        network=network,
        source=source,
        group=group,
        selector=EvenDistribution(context),
        retrial_policy=CounterRetrialPolicy(retrials),
        rng=StreamFactory(seed).stream("router"),
        reservation=SignalledReservationEngine(
            simulator, network, **perfect_plane(simulator, network)
        ),
        clock=lambda: simulator.now,
    )


def make_request(flow_id=0, source=1, members=(0, 3), arrival_time=0.0):
    return FlowRequest(
        flow_id=flow_id,
        source=source,
        group=AnycastGroup("G", members),
        qos=QoSRequirement(bandwidth_bps=64_000.0),
        arrival_time=arrival_time,
    )


def admit_sync(router, simulator, request):
    """Drive one admission to its decision and return the outcome.

    Steps only until the decision arrives, so the clock stays far below
    the lease TTL and every earlier flow still holds its reservation.
    """
    outcomes = []
    router.admit(request, on_decision=outcomes.append)
    while not outcomes and simulator.step():
        pass
    assert len(outcomes) == 1
    return outcomes[0]


class TestDecisions:
    def test_admission_with_latency_and_messages(self):
        network = line(4, capacity_bps=64_000.0, propagation_delay_s=0.001)
        simulator = Simulator()
        router = make_router(network, simulator)
        outcome = admit_sync(router, simulator, make_request())
        assert outcome.admitted
        assert outcome.latency_s > 0.0
        assert outcome.messages >= 2  # at least one hop out and back
        assert outcome.flow.admitted_at == outcome.decided_at

    def test_retrial_costs_extra_round_trip(self):
        network = line(4, capacity_bps=64_000.0, propagation_delay_s=0.001)
        simulator = Simulator()
        # Block the short route (toward 0) so a retrial is forced when
        # the first draw lands there.
        network.link(1, 0).reserve("blocker", 64_000.0)
        router = make_router(network, simulator, retrials=2, seed=3)
        latencies = []
        for flow_id in range(12):
            outcome = admit_sync(
                router,
                simulator,
                make_request(flow_id=flow_id, arrival_time=simulator.now),
            )
            if outcome.admitted:
                latencies.append((outcome.attempts, outcome.latency_s))
                router.release(outcome.flow)
                # Let the TEAR sweep free the slot (far below the
                # first lease sweep, which would see the blocker).
                simulator.run(until=simulator.now + 0.1)
        one_try = [lat for attempts, lat in latencies if attempts == 1]
        two_tries = [lat for attempts, lat in latencies if attempts == 2]
        assert one_try and two_tries
        assert min(two_tries) > max(one_try) * 0.9  # extra round trip

    def test_rejection_after_exhausting_retrials(self):
        network = line(4, capacity_bps=64_000.0)
        simulator = Simulator()
        network.link(1, 0).reserve("b1", 64_000.0)
        network.link(1, 2).reserve("b2", 64_000.0)
        router = make_router(network, simulator, retrials=2)
        outcome = admit_sync(router, simulator, make_request())
        assert not outcome.admitted
        assert outcome.attempts == 2
        assert set(outcome.tried) == {0, 3}

    def test_source_and_group_validation(self):
        network = line(4)
        simulator = Simulator()
        router = make_router(network, simulator)
        with pytest.raises(ValueError):
            router.admit(make_request(source=2), on_decision=lambda o: None)
        with pytest.raises(ValueError):
            router.admit(make_request(members=(0,)), on_decision=lambda o: None)

    def test_release_is_idempotent(self):
        network = line(4, capacity_bps=64_000.0)
        simulator = Simulator()
        router = make_router(network, simulator)
        outcome = admit_sync(router, simulator, make_request())
        router.release(outcome.flow)
        router.release(outcome.flow)
        simulator.run(until=simulator.now + 1.0)  # the TEAR sweep
        assert network.total_reserved_bps() == 0.0
        # One sweep, one TEAR per hop, despite the second release.
        assert router.reservation.tear_messages == len(outcome.flow.path) - 1


class TestEquivalenceWithAtomicRouter:
    def test_sequential_decisions_match_atomic_router(self):
        """With no signalling concurrency, decisions equal atomic ones."""
        members = (0, 4, 8, 12, 16)
        group = AnycastGroup("G", members)

        def build_atomic(network):
            routes = RouteTable(network, 9, members)
            context = SelectionContext(
                network=network, routes=routes, group=group
            )
            return ACRouter(
                network=network,
                source=9,
                group=group,
                selector=EvenDistribution(context),
                retrial_policy=CounterRetrialPolicy(2),
                rng=StreamFactory(42).stream("router"),
            )

        def build_signalled(network, simulator):
            routes = RouteTable(network, 9, members)
            context = SelectionContext(
                network=network, routes=routes, group=group
            )
            return ACRouter(
                network=network,
                source=9,
                group=group,
                selector=EvenDistribution(context),
                retrial_policy=CounterRetrialPolicy(2),
                rng=StreamFactory(42).stream("router"),
                reservation=SignalledReservationEngine(
                    simulator, network, **perfect_plane(simulator, network)
                ),
                clock=lambda: simulator.now,
            )

        atomic_network = mci_backbone(capacity_bps=3 * 64_000.0)
        signalled_network = mci_backbone(capacity_bps=3 * 64_000.0)
        atomic = build_atomic(atomic_network)
        simulator = Simulator()
        signalled = build_signalled(signalled_network, simulator)
        for flow_id in range(120):
            request = FlowRequest(
                flow_id=flow_id,
                source=9,
                group=group,
                qos=QoSRequirement(bandwidth_bps=64_000.0),
            )
            atomic_result = atomic.admit(request)
            signalled_outcome = admit_sync(signalled, simulator, request)
            assert signalled_outcome.admitted == atomic_result.admitted
            if atomic_result.admitted:
                assert (
                    signalled_outcome.flow.destination
                    == atomic_result.flow.destination
                )
