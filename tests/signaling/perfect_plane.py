"""A perfect signalling plane for RSVP-lite tests.

Sessions and engines take a channel, a retransmit policy and a lease
table.  The perfect channel (no loss, duplication or extra delay)
delivers every transfer exactly as a direct ``schedule`` would, and no
retransmission timer ever fires, so message counts and latencies are
those of the bare PATH/RESV exchange.

Nothing refreshes these leases: an unbounded ``simulator.run()``
ends by collecting every reservation ``LEASE_TTL_S`` after it was
installed.  Tests that inspect held reservations run to a bound below
the TTL.
"""

from repro.core.retrial import ExponentialBackoff
from repro.signaling.channel import RetransmitPolicy, SignalingChannel
from repro.signaling.softstate import LeaseTable

#: Lease lifetime of the perfect plane (seconds of simulated time).
LEASE_TTL_S = 60.0

#: Period of its lease collector; the first sweep runs this long after
#: the first reservation is installed.
SWEEP_INTERVAL_S = 10.0


def retransmit_policy(max_retransmits=3):
    """Backoff from 50 ms, doubling up to 1 s."""
    return RetransmitPolicy(
        ExponentialBackoff(0.05, factor=2.0, max_timeout_s=1.0),
        max_retransmits=max_retransmits,
    )


def perfect_plane(simulator, network, **overrides):
    """The ``channel``/``retransmit``/``leases`` keyword arguments.

    ``overrides`` replaces any of the three (a scripted channel, a
    shorter-lived lease table...).
    """
    plane = {
        "channel": SignalingChannel(simulator),
        "retransmit": retransmit_policy(),
        "leases": LeaseTable(
            simulator,
            network,
            ttl_s=LEASE_TTL_S,
            sweep_interval_s=SWEEP_INTERVAL_S,
        ),
    }
    plane.update(overrides)
    return plane
