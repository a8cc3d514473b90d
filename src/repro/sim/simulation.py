"""The anycast admission-control simulation model.

Recreates the paper's CSIM experiment (Section 5.1): flow requests
arrive in a Poisson stream, each is put through the admission system
under test, admitted flows hold bandwidth along their route for an
exponential lifetime, and the admission probability plus retrial
overhead are measured after a warm-up period.

The model is event-scheduled on :class:`repro.sim.engine.Simulator`
with two event types — request arrival and flow departure — which is
exactly the dynamics of a multi-service loss network.

:class:`AnycastSimulation` runs every experiment.  Link
faults (:class:`FaultConfig`) and an unreliable signalling plane
(:class:`ChaosConfig`) are optional construction config; each only
changes the reservation engine the AC-routers share.

Example
-------
>>> from repro.network.topologies import mci_backbone, MCI_SOURCES, MCI_GROUP_MEMBERS
>>> from repro.flows.group import AnycastGroup
>>> from repro.flows.traffic import WorkloadSpec
>>> from repro.core.system import SystemSpec
>>> spec = WorkloadSpec(
...     arrival_rate=20.0,
...     sources=MCI_SOURCES,
...     group=AnycastGroup("A", MCI_GROUP_MEMBERS),
... )
>>> sim = AnycastSimulation(
...     network_factory=mci_backbone,
...     system_spec=SystemSpec("ED", retrials=2),
...     workload=spec,
...     warmup_s=100.0,
...     measure_s=400.0,
...     seed=7,
... )
>>> result = sim.run()
>>> 0.0 <= result.admission_probability <= 1.0
True
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Hashable, Optional

from repro import invariants as _invariants
from repro.core.admission import AdmissionResult
from repro.core.reservation import AtomicReservationEngine, ReservationEngine
from repro.core.retrial import ExponentialBackoff
from repro.core.system import AdmissionSystem, SystemSpec, build_system
from repro.flows.flow import AdmittedFlow, FlowRequest
from repro.flows.traffic import TrafficModel, WorkloadSpec
from repro.network.faults import (
    FaultAwareReservationEngine,
    FaultInjector,
    FaultState,
)
from repro.network.topology import Network
from repro.signaling.channel import RetransmitPolicy, SignalingChannel
from repro.signaling.rsvp import (
    DEFAULT_PROCESSING_DELAY_S,
    SignalledReservationEngine,
)
from repro.signaling.softstate import LeaseTable
from repro.sim.engine import Event, Simulator
from repro.sim.metrics import MetricsCollector, SimulationResult
from repro.sim.random_streams import StreamFactory
from repro.sim.trace import TraceRecorder

NodeId = Hashable


@dataclass(frozen=True)
class FaultConfig:
    """Random link fail/repair behaviour for a simulation run.

    Enables the paper's Section 3 fault extension: cables alternate
    between up and down states with exponential holding times; flows
    crossing a failing cable are torn down, and new requests simply
    find those routes unreservable (retrial control then steers them
    to other group members).

    Attributes
    ----------
    mean_time_to_failure_s:
        Mean up-time of each cable.
    mean_time_to_repair_s:
        Mean down-time of each cable.
    cables:
        Restrict faults to these cables (default: all).
    """

    mean_time_to_failure_s: float
    mean_time_to_repair_s: float
    cables: Optional[tuple[tuple[NodeId, NodeId], ...]] = None

    def __post_init__(self) -> None:
        if self.mean_time_to_failure_s <= 0 or self.mean_time_to_repair_s <= 0:
            raise ValueError("failure and repair means must be positive")


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of the unreliable signalling plane.

    Attributes
    ----------
    loss_rate, extra_delay_s, duplicate_rate:
        Channel impairments (see :class:`SignalingChannel`).
    initial_timeout_s, backoff_factor, max_timeout_s, timeout_jitter:
        The per-hop retransmission timeout schedule (see
        :class:`repro.core.retrial.ExponentialBackoff`).
    max_retransmits:
        Retransmissions per hop transfer before the sender gives up.
    lease_ttl_s:
        Soft-state lease lifetime; an unrefreshed reservation is
        collectable this long after its last refresh.
    refresh_interval_s:
        How often an admitted flow's source refreshes its lease.
    gc_interval_s:
        Period of the orphan-collection sweep.
    processing_delay_s:
        Per-hop message processing time.
    """

    loss_rate: float = 0.0
    extra_delay_s: float = 0.0
    duplicate_rate: float = 0.0
    initial_timeout_s: float = 0.05
    backoff_factor: float = 2.0
    max_timeout_s: float = 1.0
    timeout_jitter: float = 0.1
    max_retransmits: int = 4
    lease_ttl_s: float = 60.0
    refresh_interval_s: float = 20.0
    gc_interval_s: float = 10.0
    processing_delay_s: float = DEFAULT_PROCESSING_DELAY_S

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {self.loss_rate}")
        if self.refresh_interval_s <= 0 or self.refresh_interval_s >= self.lease_ttl_s:
            raise ValueError(
                "refresh interval must be positive and below the lease TTL "
                f"(got {self.refresh_interval_s} vs TTL {self.lease_ttl_s})"
            )


class AnycastSimulation:
    """One run of the paper's simulation experiment.

    Parameters
    ----------
    network_factory:
        Zero-argument callable building a *fresh* network (state is
        mutated by reservations, so each run needs its own instance).
    system_spec:
        The ``<A, R>`` admission system under test.
    workload:
        Traffic parameters (arrival rate, sources, group, lifetimes).
    warmup_s:
        Simulated seconds to discard before measuring (lets the loss
        network reach steady state; the paper's AP is defined "in a
        stable system").
    measure_s:
        Length of the measurement window in simulated seconds.
    seed:
        Root seed; all streams (arrivals, lifetimes, source choice,
        per-router selection dice, signalling impairments) derive from
        it deterministically.
    batch_size:
        Batch size for the AP confidence interval.
    fault_config:
        Optional random link fail/repair behaviour.  Supported for the
        distributed systems; GDI's global path search would need
        fault-aware routing, which is out of the paper's scope.
    trace:
        Optional :class:`repro.sim.trace.TraceRecorder` capturing a
        per-request record of every decision in the measurement window.
    chaos:
        Optional unreliable signalling plane: admissions run RSVP-lite
        over a lossy channel, admitted flows refresh soft-state leases,
        and :meth:`run` drains the calendar to report leaked bandwidth.
        Distributed systems only, and not with ``fault_config``.
    """

    def __init__(
        self,
        network_factory: Callable[[], Network],
        system_spec: SystemSpec,
        workload: WorkloadSpec,
        warmup_s: float = 1000.0,
        measure_s: float = 4000.0,
        seed: int = 0,
        batch_size: int = 200,
        fault_config: Optional[FaultConfig] = None,
        trace: Optional["TraceRecorder"] = None,
        chaos: Optional[ChaosConfig] = None,
    ) -> None:
        if warmup_s < 0 or measure_s <= 0:
            raise ValueError(
                f"need warmup >= 0 and measure > 0, got {warmup_s}, {measure_s}"
            )
        if not system_spec.is_distributed and (
            fault_config is not None or chaos is not None
        ):
            raise ValueError(
                "fault injection and signalling are supported for "
                "distributed systems only"
            )
        if fault_config is not None and chaos is not None:
            raise ValueError("fault injection needs atomic reservations")
        self.network = network_factory()
        self.system_spec = system_spec
        self.workload = workload
        self.warmup_s = warmup_s
        self.measure_s = measure_s
        self.horizon_s = warmup_s + measure_s
        self.seed = seed
        self.chaos = chaos
        self.streams = StreamFactory(seed)
        self.simulator = Simulator()
        self.channel: Optional[SignalingChannel] = None
        self.leases: Optional[LeaseTable] = None
        self.fault_state: Optional[FaultState] = None
        self._fault_injector: Optional[FaultInjector] = None
        # The one engine every AC-router shares (None for GDI, which
        # reserves over its own paths).
        self.engine: Optional[ReservationEngine] = None
        if chaos is not None:
            self.engine = self._build_signalled_plane(chaos)
        elif fault_config is not None:
            self.fault_state = FaultState(self.network)
            self.engine = FaultAwareReservationEngine(self.network, self.fault_state)
            self._fault_injector = FaultInjector(
                self.simulator,
                self.fault_state,
                self.streams.stream("faults"),
                mean_time_to_failure_s=fault_config.mean_time_to_failure_s,
                mean_time_to_repair_s=fault_config.mean_time_to_repair_s,
                cables=fault_config.cables,
                on_fail=self._handle_fault,
            )
        elif system_spec.is_distributed:
            self.engine = AtomicReservationEngine(self.network)
        self.system: AdmissionSystem = build_system(
            system_spec,
            self.network,
            workload.sources,
            workload.group,
            self.streams,
            clock=lambda: self.simulator.now,
            reservation=self.engine,
        )
        self.routers = self.system.routers
        self.traffic = TrafficModel(workload, self.streams)
        self.metrics = MetricsCollector(
            clock=lambda: self.simulator.now, batch_size=batch_size
        )
        self.trace = trace
        self._active: dict[int, tuple[AdmittedFlow, Event]] = {}
        self.flows_dropped_by_faults = 0
        self.refresh_messages = 0
        self._ran = False

    def _build_signalled_plane(self, chaos: ChaosConfig) -> SignalledReservationEngine:
        """Channel, backoff and leases behind an RSVP-lite engine."""
        self.channel = SignalingChannel(
            self.simulator,
            loss_rate=chaos.loss_rate,
            extra_delay_s=chaos.extra_delay_s,
            duplicate_rate=chaos.duplicate_rate,
            loss_rng=self.streams.stream("signaling.loss"),
            delay_rng=self.streams.stream("signaling.delay"),
            duplicate_rng=self.streams.stream("signaling.duplicate"),
        )
        backoff = ExponentialBackoff(
            chaos.initial_timeout_s,
            factor=chaos.backoff_factor,
            max_timeout_s=chaos.max_timeout_s,
            jitter=chaos.timeout_jitter,
            rng=(
                self.streams.stream("signaling.backoff")
                if chaos.timeout_jitter > 0
                else None
            ),
        )
        self.leases = LeaseTable(
            self.simulator,
            self.network,
            ttl_s=chaos.lease_ttl_s,
            sweep_interval_s=chaos.gc_interval_s,
        )
        return SignalledReservationEngine(
            self.simulator,
            self.network,
            processing_delay_s=chaos.processing_delay_s,
            channel=self.channel,
            retransmit=RetransmitPolicy(backoff, chaos.max_retransmits),
            leases=self.leases,
        )

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _schedule_next_arrival(self) -> None:
        request = self.traffic.next_request()
        if request.arrival_time > self.horizon_s:
            return
        self.simulator.schedule_at(
            request.arrival_time, lambda: self._handle_arrival(request)
        )

    def _handle_arrival(self, request: FlowRequest) -> None:
        self._schedule_next_arrival()
        if self.chaos is None:
            self._handle_decision(self.system.admit(request))
        else:
            self.routers[request.source].admit(
                request, on_decision=self._handle_decision
            )

    def _handle_decision(self, result: AdmissionResult) -> None:
        request = result.request
        if request.arrival_time >= self.warmup_s:
            self.metrics.record_decision(result)
            if self.trace is not None:
                self.trace.record(result)
        if result.admitted:
            assert result.flow is not None  # admitted implies a granted flow
            flow: AdmittedFlow = result.flow
            self.metrics.record_flow_start()
            departure = self.simulator.schedule(
                request.lifetime_s, lambda: self._handle_departure(flow)
            )
            self._active[flow.flow_id] = (flow, departure)
            if self.chaos is not None:
                key = self.routers[request.source].reservation_key(
                    flow.flow_id, flow.attempts
                )
                self.simulator.schedule(
                    self.chaos.refresh_interval_s, lambda: self._refresh(flow, key)
                )

    def _refresh(self, flow: AdmittedFlow, key: Hashable) -> None:
        """Periodic lease refresh by the flow's source.

        Refreshes are modelled as reliable (their Path/Resv pair is
        charged to the message totals but not dropped): a flow stays
        admitted while its owner lives, and only lost teardowns/
        reservations create orphans.  The loop ends with the flow.
        """
        assert self.leases is not None and self.chaos is not None
        if flow.released or not self.leases.refresh(key):
            return
        self.refresh_messages += 2 * max(0, len(flow.path) - 1)
        self.simulator.schedule(
            self.chaos.refresh_interval_s, lambda: self._refresh(flow, key)
        )

    def _handle_departure(self, flow: AdmittedFlow) -> None:
        self._active.pop(flow.flow_id, None)
        self.system.release(flow)
        self.metrics.record_flow_end()

    def _handle_fault(
        self, cable: tuple[NodeId, NodeId], killed_flow_ids: list[int]
    ) -> None:
        """Finish tearing down flows whose route crossed a failed cable."""
        for flow_id in killed_flow_ids:
            entry = self._active.pop(flow_id, None)
            if entry is None:
                continue
            flow, departure = entry
            departure.cancel()
            # The failed cable already dropped its legs; the fault-aware
            # engine releases the rest.
            self.system.release(flow)
            self.metrics.record_flow_end()
            self.flows_dropped_by_faults += 1

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the run and return its summary.

        With a signalled plane the calendar is drained after the
        horizon: in-flight admissions decide, departures tear down
        (lost TEARs strand orphans), leases expire and the collector
        self-quiesces, so the unbounded run terminates.

        A simulation object is single-use; build a new one per run.
        """
        if self._ran:
            raise RuntimeError("AnycastSimulation objects are single-use")
        self._ran = True
        if self._fault_injector is not None:
            self._fault_injector.start()
        # Drop the warm-up ramp from the occupancy statistic: the AP
        # metrics already filter on arrival_time >= warmup_s, but the
        # time-weighted active-flow average would otherwise keep the
        # empty-network transient in its integral and bias the mean
        # low.  The reset keeps the current occupancy as the value at
        # the start of the measurement window.
        self.simulator.schedule_at(self.warmup_s, self.metrics.active_flows.reset)
        self._schedule_next_arrival()
        self.simulator.run(until=self.horizon_s)
        if self._fault_injector is not None:
            # Stop the self-rescheduling fault timers so callers can
            # drain the remaining departures with an unbounded run().
            self._fault_injector.stop()
        # Instantaneous utilization at the measurement horizon, not a
        # time-weighted average: it answers "what did the network look
        # like at the end of the run" (see SimulationResult docs).
        link_utilization = {
            (link.source, link.target): link.utilization
            for link in self.network.links()
        }
        mean_active_flows = self.metrics.active_flows.mean
        if self.chaos is not None:
            self.simulator.run()
        ci_low, ci_high = self.metrics.admission_probability_ci()
        destination_share = {
            destination: count / self.metrics.admitted
            for destination, count in sorted(
                self.metrics.destination_counts.items(), key=lambda kv: repr(kv[0])
            )
        } if self.metrics.admitted else {}
        result = SimulationResult(
            system_label=self.system_spec.label,
            arrival_rate=self.workload.arrival_rate,
            duration_s=self.measure_s,
            warmup_s=self.warmup_s,
            requests=self.metrics.requests,
            admitted=self.metrics.admitted,
            admission_probability=self.metrics.admission_probability,
            ap_ci_low=ci_low,
            ap_ci_high=ci_high,
            mean_attempts=self.metrics.mean_attempts,
            mean_retrials=self.metrics.mean_retrials,
            mean_active_flows=mean_active_flows,
            destination_share=destination_share,
            attempt_histogram=dict(sorted(self.metrics.attempt_histogram.items())),
            link_utilization=link_utilization,
            per_source_ap=self.metrics.per_source_ap(),
            fairness_index=self.metrics.fairness_index(),
            mean_admission_latency_s=self.metrics.mean_admission_latency_s,
        )
        engine = self.engine
        if not isinstance(engine, SignalledReservationEngine):
            return result
        assert self.channel is not None and self.leases is not None
        leaked = self.network.total_reserved_bps()
        if _invariants.enabled:
            _invariants.check_network(self.network)
            _invariants.check_soft_state(self.network, self.leases)
            _invariants.check_drained(self.network)
        return replace(
            result,
            signaling_messages=engine.total_messages,
            retransmissions=engine.total_retransmissions,
            refresh_messages=self.refresh_messages,
            timeouts=engine.timeouts,
            channel_dropped=self.channel.dropped,
            orphans_collected=self.leases.orphans_collected,
            reclaimed_bps=self.leases.reclaimed_bps,
            leaked_bps=leaked,
        )


def run_simulation(
    network_factory: Callable[[], Network],
    system_spec: SystemSpec,
    workload: WorkloadSpec,
    warmup_s: float = 1000.0,
    measure_s: float = 4000.0,
    seed: int = 0,
) -> SimulationResult:
    """Convenience wrapper: build and run one atomic :class:`AnycastSimulation`."""
    simulation = AnycastSimulation(
        network_factory=network_factory,
        system_spec=system_spec,
        workload=workload,
        warmup_s=warmup_s,
        measure_s=measure_s,
        seed=seed,
    )
    return simulation.run()
