"""The AC-router: the DAC procedure of Figure 1.

Each source router that receives anycast flow requests is an
Admission-Control router.  For every request it loops:

1. select a destination in the anycast group (weight-driven draw);
2. try to reserve bandwidth along the fixed route to it;
3. admitted if the reservation succeeds; otherwise consult the
   retrial policy and possibly go around again.

This module holds the only copy of that loop.  It runs in
continuation style over the reservation contract of
:mod:`repro.core.reservation`: each attempt hands the engine a
callback that concludes or retries.  An atomic engine calls back
before ``reserve`` returns, so the whole loop completes inside
:meth:`ACRouter.admit`.  The RSVP-lite engine of
:mod:`repro.signaling.rsvp` calls back after the PATH/RESV exchange,
so each retrial costs a signalling round trip of simulated time and
the decision carries its admission latency and message count.

The router owns its selector (and therefore its local admission
history) — state is strictly local, which is the point of the
*distributed* admission control mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from repro.core.reservation import AtomicReservationEngine, ReservationEngine
from repro.core.retrial import RetrialPolicy
from repro.core.selection import DestinationSelector
from repro.flows.flow import AdmittedFlow, FlowRequest
from repro.flows.group import AnycastGroup
from repro.network.routing import Route, RouteTable
from repro.network.topology import Network
from repro.sim.random_streams import RandomStream

NodeId = Hashable
FlowId = Hashable


@dataclass(frozen=True)
class AdmissionResult:
    """Outcome of one DAC run for one request.

    Attributes
    ----------
    request:
        The request that was processed.
    flow:
        The admitted flow (``None`` if rejected).
    attempts:
        Number of destinations tried (the final value of the paper's
        retrial counter ``c``); >= 1 always.
    tried:
        Destinations tried, in order.
    decided_at:
        Simulation time of the decision (equals the request's arrival
        time under atomic reservations).
    messages:
        Signalling messages sent across all attempts (0 under atomic
        reservations).
    """

    request: FlowRequest
    flow: Optional[AdmittedFlow]
    attempts: int
    tried: tuple[NodeId, ...]
    decided_at: float = 0.0
    messages: int = 0

    @property
    def admitted(self) -> bool:
        """Whether the flow was established."""
        return self.flow is not None

    @property
    def retrials(self) -> int:
        """Attempts beyond the first, i.e. ``c - 1``."""
        return self.attempts - 1

    @property
    def latency_s(self) -> float:
        """Admission latency: simulated time from arrival to decision."""
        return self.decided_at - self.request.arrival_time


class ACRouter:
    """An admission-control router running the Figure 1 loop.

    Parameters
    ----------
    network:
        Live network state shared with every other controller.
    source:
        The node this router fronts; only requests originating here may
        be submitted to it.
    group:
        The anycast group served.
    selector:
        Destination-selection algorithm (owns any local state such as
        the admission history).
    retrial_policy:
        When to keep trying after failures.
    rng:
        The router's private random stream for the weighted draws.
    reservation:
        Reservation engine; defaults to a private
        :class:`AtomicReservationEngine` on ``network``.
    resample_failed:
        If ``True`` (ablation), a destination that already failed for
        this request may be drawn again on retrial; the default
        excludes failed destinations, matching the paper's cap of
        ``R`` at the group size.
    clock:
        Simulated-time source that stamps decisions.  An engine that
        decides after ``reserve`` returns needs it; without a clock a
        decision is stamped with the request's arrival time.
    """

    def __init__(
        self,
        network: Network,
        source: NodeId,
        group: AnycastGroup,
        selector: DestinationSelector,
        retrial_policy: RetrialPolicy,
        rng: RandomStream,
        reservation: Optional[ReservationEngine] = None,
        resample_failed: bool = False,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.network = network
        self.source = source
        self.group = group
        self.selector = selector
        self.retrial_policy = retrial_policy
        self.rng = rng
        self.reservation: ReservationEngine = (
            reservation or AtomicReservationEngine(network)
        )
        self.resample_failed = resample_failed
        self.clock = clock
        self.routes = RouteTable(network, source, group.members)
        # Lifetime counters for reporting.
        self.requests_seen = 0
        self.requests_admitted = 0
        self.total_attempts = 0

    @property
    def engine(self) -> ReservationEngine:
        """The reservation engine (alias of :attr:`reservation`)."""
        return self.reservation

    def admit(
        self,
        request: FlowRequest,
        now: Optional[float] = None,
        on_decision: Optional[Callable[[AdmissionResult], None]] = None,
    ) -> Optional[AdmissionResult]:
        """Run the DAC procedure for ``request``.

        ``on_decision``, if given, receives the :class:`AdmissionResult`
        when the loop concludes.  The result is also returned when the
        loop concludes before ``admit`` returns, which is always the
        case under atomic reservations; under signalled ones ``admit``
        returns ``None``.  ``now`` overrides the decision timestamp.
        On admission the flow's bandwidth is held on every link of its
        route until :meth:`release` is called.
        """
        if request.source != self.source:
            raise ValueError(
                f"request source {request.source!r} does not match "
                f"router source {self.source!r}"
            )
        if request.group != self.group:
            raise ValueError(
                f"request group {request.group.address!r} does not match "
                f"router group {self.group.address!r}"
            )
        self.requests_seen += 1
        admission = _Admission(self, request, now, on_decision)
        admission.attempt()
        return admission.result

    def reservation_key(self, flow_id: FlowId, attempt: int) -> FlowId:
        """The key attempt number ``attempt`` of a flow reserves under."""
        if self.reservation.per_attempt_keys:
            return (flow_id, attempt)
        return flow_id

    def release(self, flow: AdmittedFlow) -> None:
        """Tear down an admitted flow's reservations (idempotent)."""
        if flow.released:
            return
        self.reservation.release(
            flow.path, self.reservation_key(flow.flow_id, flow.attempts)
        )
        flow.released = True

    @property
    def admission_ratio(self) -> float:
        """Fraction of seen requests admitted (0 when none seen)."""
        if self.requests_seen == 0:
            return 0.0
        return self.requests_admitted / self.requests_seen

    @property
    def mean_attempts(self) -> float:
        """Average destinations tried per request (0 when none seen)."""
        if self.requests_seen == 0:
            return 0.0
        return self.total_attempts / self.requests_seen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ACRouter(source={self.source!r}, selector={self.selector.name}, "
            f"seen={self.requests_seen})"
        )


class _Admission:
    """One request's pass through the Figure 1 loop.

    The loop's state lives here, not in closures, because every
    attempt continues in the reservation engine's callback (closures
    calling each other would form a reference cycle per request).
    """

    __slots__ = (
        "router", "request", "now", "on_decision", "tried", "excluded", "result"
    )

    def __init__(
        self,
        router: ACRouter,
        request: FlowRequest,
        now: Optional[float],
        on_decision: Optional[Callable[[AdmissionResult], None]],
    ) -> None:
        self.router = router
        self.request = request
        self.now = now
        self.on_decision = on_decision
        self.tried: list[NodeId] = []
        self.excluded: set[NodeId] = set()
        self.result: Optional[AdmissionResult] = None

    def attempt(self, messages: int = 0) -> None:
        """Select a destination and start reserving its route."""
        router = self.router
        destination = router.selector.select(router.rng, exclude=self.excluded)
        self.tried.append(destination)
        route = router.routes.route_to(destination)
        router.reservation.reserve(
            route,
            router.reservation_key(self.request.flow_id, len(self.tried)),
            self.request.bandwidth_bps,
            lambda outcome: self.conclude_or_retry(
                destination, route, messages + outcome.messages, outcome.success
            ),
        )

    def conclude_or_retry(
        self, destination: NodeId, route: Route, messages: int, success: bool
    ) -> None:
        """Admit on success; otherwise retry or reject per the policy."""
        router = self.router
        router.selector.observe(destination, success)
        attempts = len(self.tried)
        if not success:
            if router.resample_failed:
                distinct_tried = len(set(self.tried))
            else:
                self.excluded.add(destination)
                distinct_tried = len(self.excluded)
            if router.retrial_policy.should_retry(
                attempts_made=attempts,
                distinct_tried=distinct_tried,
                group_size=router.group.size,
            ):
                self.attempt(messages)
                return
        decided_at = self.now
        if decided_at is None:
            clock = router.clock
            decided_at = self.request.arrival_time if clock is None else clock()
        flow: Optional[AdmittedFlow] = None
        if success:
            router.requests_admitted += 1
            flow = AdmittedFlow(
                request=self.request,
                destination=destination,
                path=route.path,
                admitted_at=decided_at,
                attempts=attempts,
            )
        router.total_attempts += attempts
        self.result = AdmissionResult(
            self.request, flow, attempts, tuple(self.tried), decided_at, messages
        )
        if self.on_decision is not None:
            self.on_decision(self.result)
