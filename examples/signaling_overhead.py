#!/usr/bin/env python
"""Measure the true signalling cost of retrials with RSVP-lite.

Section 4.5 frames retrial control as an admission-probability vs
overhead trade-off, with overhead "directly proportional to ...
resource reservation messages and admission delay".  The paper's
simulation counts retrials; this example goes one level deeper and
drives the hop-by-hop PATH/RESV message model, reporting actual
message counts and reservation latencies per admission attempt.

Run:  python examples/signaling_overhead.py
"""

from repro.core.retrial import ExponentialBackoff
from repro.experiments.report import format_table
from repro.flows.group import AnycastGroup
from repro.network.routing import RouteTable
from repro.network.topologies import MCI_GROUP_MEMBERS, mci_backbone
from repro.signaling.channel import RetransmitPolicy, SignalingChannel
from repro.signaling.rsvp import SignalledReservationEngine
from repro.signaling.softstate import LeaseTable
from repro.sim.engine import Simulator
from repro.sim.random_streams import StreamFactory


def main() -> None:
    group = AnycastGroup("A", MCI_GROUP_MEMBERS)
    source = 9
    network = mci_backbone(capacity_bps=8 * 64_000.0)
    simulator = Simulator()
    # A perfect channel: no loss, so no retransmission timer fires.
    # Nothing refreshes the leases; once the burst is decided they
    # expire and the collector frees the links, ending the run.
    engine = SignalledReservationEngine(
        simulator,
        network,
        channel=SignalingChannel(simulator),
        retransmit=RetransmitPolicy(ExponentialBackoff(0.05), max_retransmits=4),
        leases=LeaseTable(simulator, network, ttl_s=60.0, sweep_interval_s=10.0),
    )
    table = RouteTable(network, source, group.members)
    rng = StreamFactory(5).stream("selection")

    print("RSVP-lite signalling from router 9 on the MCI backbone")
    print("(8 anycast slots per link, 5 ms propagation per hop)")
    print("=" * 62)

    outcomes = []

    def admit_with_retrials(flow_id: int, max_attempts: int):
        """Drive the DAC loop on top of asynchronous signalling."""
        tried = []

        def attempt():
            candidates = [m for m in group.members if m not in tried]
            destination = rng.choice(candidates)
            tried.append(destination)
            route = table.route_to(destination)

            def on_done(outcome):
                if outcome.success or len(tried) >= max_attempts:
                    outcomes.append((flow_id, outcome.success, len(tried)))
                else:
                    attempt()

            engine.reserve(route, (flow_id, destination), 64_000.0, on_done)

        attempt()

    # Offer a burst of 120 flows; capacity fits only a fraction.
    for flow_id in range(120):
        simulator.schedule(flow_id * 0.01, lambda f=flow_id: admit_with_retrials(f, 2))
    simulator.run()

    admitted = sum(1 for _, success, _ in outcomes if success)
    attempts = sum(tries for _, _, tries in outcomes)
    rows = [
        ["flows offered", str(len(outcomes))],
        ["flows admitted", str(admitted)],
        ["destination attempts", str(attempts)],
        ["signalling messages", str(engine.total_messages)],
        ["messages per attempt", f"{engine.mean_messages:.2f}"],
        ["mean reservation latency", f"{engine.mean_latency_s * 1000:.2f} ms"],
    ]
    print(format_table(["metric", "value"], rows))
    print()
    print(
        "Every retrial costs another PATH/RESV round trip, which is why\n"
        "the paper prefers selection algorithms that need few retrials\n"
        "(Figure 7) and caps R at 2 in its recommended systems."
    )


if __name__ == "__main__":
    main()
