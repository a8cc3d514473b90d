"""Resource reservation (paper Section 4.4).

Once a destination is selected, the DAC procedure must (task 1) check
that every link of the fixed route has enough available bandwidth and
(task 2) reserve that bandwidth — the check-and-reserve the paper
delegates to RSVP PATH/RESV messages.

Every engine honours one contract, :class:`ReservationEngine`:
``reserve(route, key, bandwidth_bps, on_done)`` starts an attempt and
``on_done`` receives its :class:`ReservationOutcome`.
:class:`AtomicReservationEngine` does both tasks in one critical step
and calls back before ``reserve`` returns — the zero-latency case the
paper's simulation model assumes.  The RSVP-lite engine in
:mod:`repro.signaling.rsvp` is the same contract with signalling
delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Protocol, Sequence

from repro.network.routing import Route
from repro.network.topology import Network

FlowId = Hashable
NodeId = Hashable


@dataclass(frozen=True)
class ReservationOutcome:
    """Result of one reservation attempt.

    Attributes
    ----------
    success:
        Whether the route is now reserved for the flow.
    bottleneck_bps:
        Minimum available bandwidth observed by a signalled RESV sweep
        (``inf`` when unmeasured: atomic attempts, failed PATH probes).
    messages:
        Total messages transmitted (PATH + RESV + PATH_ERR hops,
        including retransmissions; TEAR messages are counted by the
        engine because teardown outlives the attempt).  0 for atomic
        attempts.
    latency_s:
        Simulated time from start to decision.
    failed_link:
        The ``(u, v)`` pair that refused, if any.
    timed_out:
        Whether the attempt failed because a hop transfer exhausted
        its retransmissions (robust signalling only).
    retransmissions:
        Retransmitted messages within the attempt.
    """

    success: bool
    bottleneck_bps: float = float("inf")
    messages: int = 0
    latency_s: float = 0.0
    failed_link: Optional[tuple[NodeId, NodeId]] = None
    timed_out: bool = False
    retransmissions: int = 0


#: The outcomes of a zero-latency attempt (shared: outcomes are frozen).
GRANTED = ReservationOutcome(success=True)
REFUSED = ReservationOutcome(success=False)


class ReservationEngine(Protocol):
    """The reservation contract the AC-router's DAC loop runs over."""

    @property
    def per_attempt_keys(self) -> bool:
        """Whether attempt ``n`` of a flow reserves under ``(flow_id, n)``,
        so a timed-out attempt's orphans never collide with a later one."""
        ...

    def reserve(
        self,
        route: Route,
        key: FlowId,
        bandwidth_bps: float,
        on_done: Callable[[ReservationOutcome], None],
    ) -> None:
        """Start reserving along ``route``; ``on_done`` gets the outcome."""
        ...

    def release(self, path: Sequence[NodeId], flow_id: FlowId) -> None:
        """Tear down the reservation held under ``flow_id`` along ``path``."""
        ...


class AtomicReservationEngine:
    """All-or-nothing bandwidth reservation on fixed routes.

    Counts attempts and failures so the experiment harness can report
    signalling overhead (each attempt corresponds to one PATH/RESV
    round trip in a deployed system).
    """

    per_attempt_keys = False

    def __init__(self, network: Network) -> None:
        self.network = network
        #: reservation attempts made (one per destination tried)
        self.attempts = 0
        #: attempts refused for lack of bandwidth on some link
        self.failures = 0

    def try_reserve(self, route: Route, flow_id: FlowId, bandwidth_bps: float) -> bool:
        """Attempt to reserve ``bandwidth_bps`` along ``route``.

        Returns ``True`` and holds the bandwidth on every link on
        success; returns ``False`` and leaves the network untouched on
        failure.
        """
        self.attempts += 1
        if bandwidth_bps < 0:
            raise ValueError(f"bandwidth must be non-negative, got {bandwidth_bps}")
        # The route caches its resolved link objects, so repeated
        # attempts skip the per-hop (u, v) dict lookups entirely.
        success = self.network.reserve_links(
            route.resolve_links(self.network), flow_id, bandwidth_bps
        )
        if not success:
            self.failures += 1
        return success

    def reserve(
        self,
        route: Route,
        key: FlowId,
        bandwidth_bps: float,
        on_done: Callable[[ReservationOutcome], None],
    ) -> None:
        """The contract's zero-latency case: decide via :meth:`try_reserve`."""
        on_done(GRANTED if self.try_reserve(route, key, bandwidth_bps) else REFUSED)

    def release(self, path: Sequence[NodeId], flow_id: FlowId) -> None:
        """Tear down a flow's reservation along ``path``."""
        self.network.release_path(path, flow_id)

    @property
    def failure_rate(self) -> float:
        """Fraction of reservation attempts refused (0 when untried)."""
        if self.attempts == 0:
            return 0.0
        return self.failures / self.attempts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AtomicReservationEngine(attempts={self.attempts}, "
            f"failures={self.failures})"
        )
