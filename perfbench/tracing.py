"""Spans recorded from outside the program, around calls into each layer.

:func:`instrument` replaces public callables on the *built instances*
(never on classes, never in ``src/``) with timing wrappers, and wraps
the instance's ``Simulator.schedule``/``schedule_at`` so every event
callback becomes a span named after the module that defined it.  No
wrapper draws a random number or changes an argument, so a traced run
takes exactly the decisions of an untraced one.

A span is ``(id, layer, start, end, parent, request)``.  ``parent`` is
the enclosing span, or for an event callback the span that scheduled
it; ``request`` is the flow id of the admission the span serves, passed
on to the events it schedules.  Self time is a span's duration minus
the durations of its direct children.  Spans stay in memory and are
written out once, after the run.
"""

from __future__ import annotations

import gzip
import itertools
from time import perf_counter
from typing import Any, Callable

# Layer names: the module (or module.Class.method) the span times.
ENGINE_RUN = "sim.engine.run"
TRAFFIC = "flows.traffic.next_request"
SYSTEM_ADMIT = "core.system.admit"
ROUTER_ADMIT = "core.admission.admit"
SELECT = "core.selection.select"
STATE_READ = "network.state.route_available_bps"
RESERVE = "network.reserve"
RELEASE = "network.release"
BFS = "network.routing.feasible_path"
GDI_ADMIT = "baselines.gdi.admit"
METRICS = "sim.metrics.record"
SEND = "signaling.channel.send"
REFRESH = "signaling.leases.refresh"
EVENT = "event:"
DRIVER_MODULES = ("repro.sim.simulation", "repro.experiments.chaos")


class Tracer:
    """Span stack, per-layer totals and the in-memory span list."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: layer -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: inclusive durations of each top-level admission decision
        self.decision_samples: list[float] = []
        self.pending_samples: list[int] = []
        self.request = -1
        self._open: list[list] = []  # [span id, child seconds] per open span
        self._ids = itertools.count(1)
        self._last_duration = 0.0

    def _total(self, layer: str) -> list:
        return self.totals.setdefault(layer, [0, 0.0, 0.0])

    def _span(self, layer: str, total: list, parent: int, request: int,
              fn: Callable, args: tuple, kwargs: dict) -> Any:
        opened = self._open
        frame = [next(self._ids), 0.0]
        previous = self.request
        self.request = request
        opened.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            opened.pop()
            duration = end - start
            if opened:
                opened[-1][1] += duration
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame[1]
            self.spans.append((frame[0], layer, start, end, parent, request))
            self.request = previous
            self._last_duration = duration

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed as a span of ``layer`` inside the open span."""
        total = self._total(layer)
        opened = self._open
        span = self._span
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = opened[-1][0] if opened else 0
            return span(layer, total, parent, tracer.request, fn, args, kwargs)

        return traced

    def wrap_decision(self, layer: str, fn: Callable, pending: Callable[[], int]) -> Callable:
        """A top-level ``admit``: it sets the request id of its spans,
        samples ``pending()`` and keeps its duration as a latency sample."""
        total = self._total(layer)
        opened = self._open
        span = self._span
        tracer = self

        def decided(request: Any, *args: Any, **kwargs: Any) -> Any:
            tracer.pending_samples.append(pending())
            parent = opened[-1][0] if opened else 0
            try:
                return span(layer, total, parent, request.flow_id, fn,
                            (request, *args), kwargs)
            finally:
                tracer.decision_samples.append(tracer._last_duration)

        return decided

    def event(self, callback: Callable[[], Any]) -> Callable[[], Any]:
        """``callback`` as an event span caused by the currently open span."""
        layer = EVENT + (getattr(callback, "__module__", None) or "unknown")
        total = self._total(layer)
        cause = self._open[-1][0] if self._open else 0
        request = self.request
        span = self._span
        return lambda: span(layer, total, cause, request, callback, (), {})

    def calls(self, layer: str) -> int:
        return self.totals.get(layer, [0, 0.0, 0.0])[0]

    def inclusive(self, layer: str) -> float:
        return self.totals.get(layer, [0, 0.0, 0.0])[1]

    def self_time(self, layer: str) -> float:
        return self.totals.get(layer, [0, 0.0, 0.0])[2]

    def event_self(self, prefixes: tuple[str, ...]) -> float:
        return sum(
            t[2] for layer, t in self.totals.items()
            if layer.startswith(EVENT) and layer[len(EVENT):].startswith(prefixes)
        )

    def write(self, path: str) -> None:
        """Write every span as one CSV line (times in ns from the first)."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,layer,start_ns,end_ns,parent,request\n")
            for sid, layer, start, end, parent, request in sorted(self.spans):
                out.write(
                    f"{sid},{layer},{round((start - origin) * 1e9)},"
                    f"{round((end - origin) * 1e9)},{parent},{request}\n"
                )


def _wrap_once(seen: set, obj: Any, name: str, wrapper: Callable[[Callable], Callable]) -> None:
    """Replace ``obj.name`` by ``wrapper(obj.name)`` unless already done."""
    key = (id(obj), name)
    if key in seen:
        return
    seen.add(key)
    setattr(obj, name, wrapper(getattr(obj, name)))


def instrument(tracer: Tracer, built: Any) -> Callable[[], None]:
    """Wrap the layers of ``built``; returns the undo of the module patch."""
    seen: set = set()
    simulator = built.simulator

    def wrap(layer: str) -> Callable[[Callable], Callable]:
        return lambda fn: tracer.wrap(layer, fn)

    schedule = simulator.schedule
    schedule_at = simulator.schedule_at
    simulator.schedule = lambda delay, cb: schedule(delay, tracer.event(cb))
    simulator.schedule_at = lambda time, cb: schedule_at(time, tracer.event(cb))
    _wrap_once(seen, simulator, "run", wrap(ENGINE_RUN))

    _wrap_once(seen, built.traffic, "next_request", wrap(TRAFFIC))
    for name in ("record_decision", "record_flow_start", "record_flow_end"):
        _wrap_once(seen, built.metrics, name, wrap(METRICS))

    pending = lambda: simulator.pending_count  # noqa: E731
    decider_layer = ROUTER_ADMIT if built.signalled else SYSTEM_ADMIT
    for decider in built.deciders:
        _wrap_once(seen, decider, "admit",
                   lambda fn: tracer.wrap_decision(decider_layer, fn, pending))
        _wrap_once(seen, decider, "release", wrap(RELEASE))

    for router in built.routers:
        if not built.signalled:
            _wrap_once(seen, router, "admit", wrap(ROUTER_ADMIT))
            _wrap_once(seen, router.reservation, "try_reserve", wrap(RESERVE))
        else:
            _wrap_once(seen, router.engine, "reserve", wrap(RESERVE))
        selector = router.selector
        _wrap_once(seen, selector, "select", wrap(SELECT))
        view = getattr(selector, "view", None)
        if view is not None:
            _wrap_once(seen, view, "route_available_bps", wrap(STATE_READ))

    if built.signalled:
        sim = built.simulation
        _wrap_once(seen, sim.channel, "send", wrap(SEND))
        _wrap_once(seen, sim.leases, "refresh", wrap(REFRESH))
    if built.routers:
        return lambda: None
    # GDI: one global controller behind the system, and its BFS as the
    # name bound in its module.
    from repro.baselines import gdi

    controller = built.deciders[0].controller_for(None)
    _wrap_once(seen, controller, "admit", wrap(GDI_ADMIT))
    _wrap_once(seen, built.network, "reserve_path", wrap(RESERVE))
    original = gdi.feasible_path
    gdi.feasible_path = tracer.wrap(BFS, original)
    return lambda: setattr(gdi, "feasible_path", original)


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def exact_counters(tracer: Tracer, built: Any) -> dict[str, list[int]]:
    """Deterministic work counts as ``[numerator, denominator]`` pairs."""
    simulator = built.simulator
    decisions = built.decisions_made()
    admitted = built.admitted_total()
    selects = tracer.calls(SELECT)
    # GDI makes one global attempt per decision.
    attempts = tracer.calls(RESERVE) if built.routers else tracer.calls(GDI_ADMIT)
    counters = {
        "sim.engine.events_per_arrival": [simulator.events_executed, decisions],
        "sim.engine.pending_mean": [sum(tracer.pending_samples), len(tracer.pending_samples)],
        "core.admission.attempts_per_decision": [attempts, decisions],
        "core.selection.selects_per_decision": [selects, decisions],
        "network.state.reads_per_select": [tracer.calls(STATE_READ), selects],
        "network.reserve_success_ratio": [admitted, attempts],
        "network.routing.bfs_per_decision": [tracer.calls(BFS), decisions],
        "signaling.messages_per_attempt": [0, 0],
        "signaling.retransmits_per_attempt": [0, 0],
        "signaling.timeouts": [0, 1],
        "signaling.channel.drop_ratio": [0, 0],
        "signaling.leases.orphans_collected": [0, 1],
    }
    if built.signalled:
        sim = built.simulation
        engine = sim.engine
        counters.update({
            "signaling.messages_per_attempt": [engine.total_messages, engine.attempts],
            "signaling.retransmits_per_attempt": [engine.total_retransmissions, engine.attempts],
            "signaling.timeouts": [engine.timeouts, 1],
            "signaling.channel.drop_ratio": [sim.channel.dropped, sim.channel.sent],
            "signaling.leases.orphans_collected": [sim.leases.orphans_collected, 1],
        })
    return counters


def _self_seconds(tracer: Tracer) -> dict[str, float]:
    """Self time of each layer group of the program, in seconds."""
    return {
        "engine": tracer.self_time(ENGINE_RUN),
        "traffic": tracer.self_time(TRAFFIC),
        "admission": tracer.self_time(SYSTEM_ADMIT) + tracer.self_time(ROUTER_ADMIT),
        "selection": tracer.self_time(SELECT),
        "state_reads": tracer.self_time(STATE_READ),
        "reserve_release": tracer.self_time(RESERVE) + tracer.self_time(RELEASE),
        "routing_bfs": tracer.self_time(BFS),
        "gdi": tracer.self_time(GDI_ADMIT),
        "signaling": tracer.event_self(("repro.signaling",))
        + tracer.self_time(SEND) + tracer.self_time(REFRESH),
        "metrics": tracer.self_time(METRICS),
        "driver": tracer.event_self(DRIVER_MODULES),
    }


def timed_layers(tracer: Tracer, built: Any) -> dict[str, float]:
    """Per-layer timings (µs) of one traced repetition."""
    arrivals = built.decisions_made()
    own = _self_seconds(tracer)

    def per(seconds: float, count: int) -> float:
        return 1e6 * seconds / count if count else 0.0

    def per_call(layer: str) -> float:
        return per(tracer.inclusive(layer), tracer.calls(layer))

    samples = tracer.decision_samples
    return {
        "sim.engine.self_us_per_arrival": per(own["engine"], arrivals),
        "flows.traffic.us_per_request": per_call(TRAFFIC),
        "core.admission.self_us_per_decision": per(own["admission"], arrivals),
        "core.admission.decision_us_p50": 1e6 * _percentile(samples, 0.50),
        "core.admission.decision_us_p99": 1e6 * _percentile(samples, 0.99),
        "core.selection.us_per_select": per_call(SELECT),
        "network.reserve_us_per_attempt": per_call(RESERVE),
        "network.release_us_per_flow": per_call(RELEASE),
        "network.routing.us_per_bfs": per_call(BFS),
        "baselines.gdi.self_us_per_decision": per(own["gdi"], arrivals),
        "signaling.callback_us_per_arrival": per(own["signaling"], arrivals),
        "sim.metrics.us_per_arrival": per(own["metrics"], arrivals),
        "experiments.driver_self_us_per_arrival": per(own["driver"], arrivals),
    }


def layer_split(tracer: Tracer, arrivals: int, run_seconds: float) -> dict[str, float]:
    """Self time per arrival (µs) of each layer group.

    The groups add up to the traced run time; ``other`` is what no
    wrapper covered (result assembly, events of other modules).
    """
    groups = _self_seconds(tracer)
    groups["other"] = max(0.0, run_seconds - sum(groups.values()))
    return {name: 1e6 * seconds / arrivals for name, seconds in groups.items()}
