"""Hop-by-hop RSVP-lite reservation sessions.

One :class:`RsvpSession` performs one check-and-reserve attempt along
a fixed route in simulated time:

1. a PATH message travels source → destination, advisorily checking
   available bandwidth at each hop (failing fast where bandwidth is
   already missing);
2. at the destination it turns around as a RESV message that travels
   destination → source, *actually* reserving bandwidth on each link
   (in the upstream direction of data flow) and accumulating the
   bottleneck available bandwidth — the route-bandwidth feedback the
   WD/D+B algorithm needs RESV to carry;
3. if a link refuses (a competing session won the race since the PATH
   probe), the partial reservations are torn down and a PATH_ERR is
   charged for the remaining distance to the source.

Every hop transfer crosses a
:class:`repro.signaling.channel.SignalingChannel` under a
:class:`repro.signaling.channel.RetransmitPolicy`, and every installed
per-link reservation registers a lease in a
:class:`repro.signaling.softstate.LeaseTable`:

* each hop transfer is guarded by a timer; undelivered messages are
  retransmitted with exponential backoff up to a cap, and receivers
  deduplicate late or duplicated copies;
* when a transfer exhausts its retransmissions the session gives up:
  a PATH-phase loss behaves like a fail-fast PATH_ERR, a RESV-phase
  loss additionally starts a TEAR sweeping downstream to release the
  partial reservations — through the same unreliable channel, so a
  lost TEAR leaves orphans (which the lease collector later reclaims);
* a RESV that loses a race mid-sweep tears its partial reservations
  the same way, and so does a release of an admitted flow.

A perfect channel (zero loss, duplication and extra delay) delivers
every transfer exactly as a direct ``schedule`` would, which is the
idealization the paper works in.

Message counts and latency are recorded so the experiment harness can
report the true signalling cost of retrials.  Admission probabilities
are unaffected relative to the atomic engine except for rare races,
which tests quantify.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional, Sequence

from repro.core.reservation import ReservationOutcome
from repro.network.link import InsufficientBandwidthError
from repro.network.routing import Route
from repro.network.topology import Network
from repro.signaling.channel import RetransmitPolicy, SignalingChannel
from repro.signaling.softstate import LeaseTable
from repro.sim.engine import Event, Simulator

FlowId = Hashable

#: Per-hop message processing time (seconds); propagation delay comes
#: from each link.  Matches small-router forwarding-plane latencies.
DEFAULT_PROCESSING_DELAY_S = 0.0002


class _TearSweep:
    """One TEAR propagating source → destination along a path.

    Each delivered hop releases the upstream link it arrived over and
    drops it from the flow's lease, then forwards the TEAR while the
    next downstream link is still held.  The sweep travels through the
    (possibly lossy) channel with *no* retransmission — RSVP tears are
    unacknowledged — so a lost TEAR strands the remaining links until
    their lease expires.
    """

    __slots__ = (
        "_network",
        "_channel",
        "_path",
        "_flow_id",
        "_processing_delay",
        "_leases",
        "_on_message",
    )

    def __init__(
        self,
        network: Network,
        channel: SignalingChannel,
        path: Sequence,
        flow_id: FlowId,
        processing_delay_s: float,
        leases: LeaseTable,
        on_message: Callable[[], None],
    ) -> None:
        self._network = network
        self._channel = channel
        self._path = tuple(path)
        self._flow_id = flow_id
        self._processing_delay = processing_delay_s
        self._leases = leases
        self._on_message = on_message

    def start_from(self, node_index: int) -> None:
        """Begin the sweep at ``path[node_index]`` (holds no upstream leg)."""
        self._forward(node_index)

    def release_and_forward(self, node_index: int) -> None:
        """Release the upstream link at ``path[node_index]``, then forward."""
        path = self._path
        link = self._network.link(path[node_index - 1], path[node_index])
        link.release_if_held(self._flow_id)
        self._leases.drop_link(self._flow_id, link)
        self._forward(node_index)

    def _forward(self, node_index: int) -> None:
        path = self._path
        if node_index >= len(path) - 1:
            return
        link = self._network.link(path[node_index], path[node_index + 1])
        if not link.holds(self._flow_id):
            # Nothing further downstream to tear (never installed, or
            # already collected); the sweep ends here.
            return
        self._on_message()
        delay = link.propagation_delay_s + self._processing_delay
        self._channel.send(delay, lambda: self.release_and_forward(node_index + 1))


class RsvpSession:
    """One PATH/RESV exchange for one flow over one route.

    Parameters
    ----------
    simulator, network, route, bandwidth_bps:
        The attempt: reserve ``bandwidth_bps`` along ``route``.
    flow_id:
        The reservation key on every link.  Callers running retries
        pass a per-attempt key so a timed-out attempt's orphans never
        collide with a later attempt.
    on_complete:
        Receives the attempt's :class:`ReservationOutcome`.
    channel:
        Delivery substrate for every hop transfer (possibly lossy).
    retransmit:
        Per-hop timeout/retransmission policy; its timers also let
        receivers deduplicate copies.
    leases:
        Soft-state lease table; every installed per-link reservation
        is registered under ``flow_id``.
    processing_delay_s:
        Per-hop message processing time.
    on_tear_message:
        Invoked once per TEAR transmission (teardown outlives the
        attempt, so these are not in ``ReservationOutcome.messages``).
    """

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        route: Route,
        flow_id: FlowId,
        bandwidth_bps: float,
        on_complete: Callable[[ReservationOutcome], None],
        *,
        channel: SignalingChannel,
        retransmit: RetransmitPolicy,
        leases: LeaseTable,
        processing_delay_s: float = DEFAULT_PROCESSING_DELAY_S,
        on_tear_message: Optional[Callable[[], None]] = None,
    ):
        if bandwidth_bps < 0:
            raise ValueError(f"bandwidth must be non-negative, got {bandwidth_bps}")
        self._simulator = simulator
        self._network = network
        self._route = route
        self._flow_id = flow_id
        self._bandwidth = bandwidth_bps
        self._on_complete = on_complete
        self._processing_delay = processing_delay_s
        self._channel = channel
        self._retransmit = retransmit
        self._leases = leases
        self._on_tear_message = on_tear_message
        self._messages = 0
        self._retransmissions = 0
        self._started_at = simulator.now

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the PATH probe from the source."""
        path = self._route.path
        if len(path) < 2:
            # Degenerate zero-hop route: nothing to reserve.
            self._finish(success=True, bottleneck=float("inf"))
            return
        self._advance_path(hop_index=0)

    # ------------------------------------------------------------------
    # transfer primitive: one hop, guarded by timers
    # ------------------------------------------------------------------
    def _transfer(
        self,
        delay_s: float,
        deliver: Callable[[], None],
        on_lost: Callable[[], None],
    ) -> None:
        """Move one message across one hop.

        The sender arms a backoff timer per transmission and
        retransmits until delivery or the cap; ``on_lost`` fires when
        the cap is exhausted.  The receiver side deduplicates, so
        duplicated or straggling copies cannot advance the protocol
        twice.
        """
        self._messages += 1
        policy = self._retransmit
        state = {"done": False, "tries": 0}
        timer_box: list[Optional[Event]] = [None]

        def arrive() -> None:
            if state["done"]:
                return  # duplicate or late copy
            state["done"] = True
            timer = timer_box[0]
            if timer is not None:
                timer.cancel()
                timer_box[0] = None
            deliver()

        def timed_out() -> None:
            if state["done"]:
                return
            if state["tries"] >= policy.max_retransmits:
                # Give up; suppress any straggler copies still in flight.
                state["done"] = True
                on_lost()
                return
            state["tries"] += 1
            self._messages += 1
            self._retransmissions += 1
            transmit()

        def transmit() -> None:
            timer_box[0] = self._simulator.schedule(
                policy.timeout(state["tries"]), timed_out
            )
            self._channel.send(delay_s, arrive)

        transmit()

    # ------------------------------------------------------------------
    # PATH phase: source -> destination, advisory checks
    # ------------------------------------------------------------------
    def _advance_path(self, hop_index: int) -> None:
        path = self._route.path
        link = self._network.link(path[hop_index], path[hop_index + 1])
        if not link.can_admit(self._bandwidth):
            # Fail fast: charge the hops travelled so far plus an error
            # message back to the source.
            self._messages += hop_index  # PATH_ERR retraces hop_index links
            self._finish(
                success=False,
                bottleneck=float("inf"),
                failed_link=(link.source, link.target),
            )
            return
        delay = link.propagation_delay_s + self._processing_delay
        if hop_index + 1 == len(path) - 1:
            # PATH reached the destination: turn around as RESV.
            deliver = lambda: self._advance_resv(  # noqa: E731
                len(path) - 1, float("inf")
            )
        else:
            deliver = lambda: self._advance_path(hop_index + 1)  # noqa: E731
        self._transfer(delay, deliver, lambda: self._path_lost(hop_index))

    def _path_lost(self, hop_index: int) -> None:
        """The PATH transfer out of ``path[hop_index]`` exhausted retries."""
        path = self._route.path
        self._messages += hop_index  # PATH_ERR retraces hop_index links
        self._finish(
            success=False,
            bottleneck=float("inf"),
            failed_link=(path[hop_index], path[hop_index + 1]),
            timed_out=True,
        )

    # ------------------------------------------------------------------
    # RESV phase: destination -> source, actual reservation
    # ------------------------------------------------------------------
    def _advance_resv(self, node_index: int, bottleneck: float) -> None:
        path = self._route.path
        if node_index == 0:
            self._finish(success=True, bottleneck=bottleneck)
            return
        link = self._network.link(path[node_index - 1], path[node_index])
        available_before = link.available_bps
        try:
            link.reserve(self._flow_id, self._bandwidth)
        except InsufficientBandwidthError:
            # Race lost mid-sweep: tear the downstream partial
            # reservations hop by hop (the TEAR itself may be lost;
            # leases then cover the orphans) and charge PATH_ERR
            # messages back to the source.
            self._messages += node_index
            self._start_tear().start_from(node_index)
            self._finish(
                success=False,
                bottleneck=bottleneck,
                failed_link=(link.source, link.target),
            )
            return
        self._leases.register(self._flow_id, link)
        bottleneck = min(bottleneck, available_before)
        delay = link.propagation_delay_s + self._processing_delay
        self._transfer(
            delay,
            lambda: self._advance_resv(node_index - 1, bottleneck),
            lambda: self._resv_lost(node_index, bottleneck),
        )

    def _resv_lost(self, node_index: int, bottleneck: float) -> None:
        """The RESV transfer out of ``path[node_index]`` exhausted retries.

        The node releases its own upstream leg immediately (it knows
        the exchange is dead) and tears the rest downstream; the
        source-side outcome is a timed-out failure.
        """
        self._start_tear().release_and_forward(node_index)
        path = self._route.path
        self._finish(
            success=False,
            bottleneck=bottleneck,
            failed_link=(path[node_index - 1], path[node_index]),
            timed_out=True,
        )

    def _start_tear(self) -> _TearSweep:
        on_message = self._on_tear_message
        return _TearSweep(
            self._network,
            self._channel,
            self._route.path,
            self._flow_id,
            self._processing_delay,
            self._leases,
            on_message if on_message is not None else lambda: None,
        )

    # ------------------------------------------------------------------
    def _finish(
        self,
        success: bool,
        bottleneck: float,
        failed_link: Optional[tuple] = None,
        timed_out: bool = False,
    ) -> None:
        outcome = ReservationOutcome(
            success=success,
            bottleneck_bps=bottleneck,
            messages=self._messages,
            latency_s=self._simulator.now - self._started_at,
            failed_link=failed_link,
            timed_out=timed_out,
            retransmissions=self._retransmissions,
        )
        self._on_complete(outcome)


class SignalledReservationEngine:
    """Asynchronous reservation engine driving RSVP-lite sessions.

    The message-level sibling of
    :class:`repro.core.reservation.AtomicReservationEngine`: same
    check-and-reserve semantics, but the decision arrives after the
    round-trip signalling delay, and message/latency totals accumulate
    for overhead reporting.  Every session shares the engine's
    ``channel``, ``retransmit`` policy and ``leases`` (see the module
    docstring), and releases travel as hop-by-hop TEAR sweeps through
    the channel.
    """

    #: Attempts reserve under per-attempt keys (see
    #: :class:`repro.core.reservation.ReservationEngine`).
    per_attempt_keys = True

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        *,
        channel: SignalingChannel,
        retransmit: RetransmitPolicy,
        leases: LeaseTable,
        processing_delay_s: float = DEFAULT_PROCESSING_DELAY_S,
    ):
        self.simulator = simulator
        self.network = network
        self.processing_delay_s = processing_delay_s
        self.channel = channel
        self.retransmit = retransmit
        self.leases = leases
        self.attempts = 0
        self.failures = 0
        self.total_messages = 0
        self.total_latency_s = 0.0
        #: retransmitted messages across all attempts
        self.total_retransmissions = 0
        #: attempts abandoned because a hop exhausted its retries
        self.timeouts = 0
        #: TEAR transmissions (teardowns outlive their attempts)
        self.tear_messages = 0

    def _count_tear_message(self) -> None:
        self.total_messages += 1
        self.tear_messages += 1

    def reserve(
        self,
        route: Route,
        key: FlowId,
        bandwidth_bps: float,
        on_done: Callable[[ReservationOutcome], None],
    ) -> None:
        """Start a reservation attempt; ``on_done`` fires later.

        ``key`` is the reservation key on every link; the AC-router
        passes a per-attempt key (see :attr:`per_attempt_keys`).
        """
        self.attempts += 1

        def record_and_forward(outcome: ReservationOutcome) -> None:
            if not outcome.success:
                self.failures += 1
            self.total_messages += outcome.messages
            self.total_latency_s += outcome.latency_s
            self.total_retransmissions += outcome.retransmissions
            if outcome.timed_out:
                self.timeouts += 1
            on_done(outcome)

        session = RsvpSession(
            self.simulator,
            self.network,
            route,
            key,
            bandwidth_bps,
            record_and_forward,
            processing_delay_s=self.processing_delay_s,
            channel=self.channel,
            retransmit=self.retransmit,
            leases=self.leases,
            on_tear_message=self._count_tear_message,
        )
        session.start()

    def release(self, path: Sequence, flow_id: FlowId) -> None:
        """Tear down a reservation; TEAR messages are charged.

        A hop-by-hop TEAR sweep travels through the channel: each
        delivered hop releases its leg, and a lost TEAR strands the
        rest for the lease collector.
        """
        _TearSweep(
            self.network,
            self.channel,
            path,
            flow_id,
            self.processing_delay_s,
            self.leases,
            self._count_tear_message,
        ).start_from(0)

    @property
    def mean_latency_s(self) -> float:
        """Average signalling latency per attempt (0 when untried)."""
        if self.attempts == 0:
            return 0.0
        return self.total_latency_s / self.attempts

    @property
    def mean_messages(self) -> float:
        """Average messages per attempt (0 when untried)."""
        if self.attempts == 0:
            return 0.0
        return self.total_messages / self.attempts
