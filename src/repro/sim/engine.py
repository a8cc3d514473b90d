"""Event calendar and simulation clock.

This module is the foundation of the CSIM-equivalent substrate: a
classic event-scheduled discrete-event simulator.  Time is a float in
arbitrary units (the anycast model uses seconds).  Events are callbacks
scheduled at absolute times and executed in non-decreasing time order;
ties are broken by insertion order so runs are fully deterministic.

The pending-event set is one binary heap owned by the
:class:`Simulator`.  Its entries are ``(time, sequence, event)``
tuples, so every sift comparison is resolved in C and never calls back
into Python; with thousands of pending departure timers (the steady
state of every loss-network sweep) this keeps comparison cost out of
the profile.  A same-timestamp run of events is just consecutive pops,
so one dispatch loop serves every caller.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> handle = sim.schedule(2.0, lambda: fired.append(sim.now))
>>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
>>> sim.run()
>>> fired
[1.0, 2.0]
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro import invariants as _invariants

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised when the simulator is used inconsistently.

    Examples include scheduling an event in the past or running a
    simulator that has already been stopped and drained.
    """


class Event:
    """A scheduled callback, returned by :meth:`Simulator.schedule`.

    Events support O(1) cancellation: cancelling marks the event dead
    and the event loop skips it when it surfaces in the heap.  The
    owning simulator's live-event counter is decremented so
    :attr:`Simulator.pending_count` stays exact without scanning.

    Attributes
    ----------
    time:
        Absolute simulation time at which the callback fires.
    callback:
        Zero-argument callable invoked at ``time``.
    """

    __slots__ = ("time", "callback", "_cancelled", "_owner")

    def __init__(
        self,
        time: float,
        callback: Callable[[], Any],
        owner: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self._cancelled = False
        self._owner = owner

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        owner = self._owner
        if owner is not None:
            self._owner = None
            owner._live -= 1

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        return f"Event(t={self.time:.6g}, {state})"


class Simulator:
    """Deterministic event-scheduled discrete-event simulator.

    The simulator keeps its pending events in a binary heap.
    :meth:`run` repeatedly pops the earliest event, advances the clock
    to its timestamp and invokes its callback.  Callbacks may schedule
    further events.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (default ``0.0``).
    check_invariants:
        Enable the runtime sanitizer for this simulator: every
        dispatched event is verified never to move time backwards
        (see :mod:`repro.invariants`).  Defaults to the process-wide
        switch (``REPRO_CHECK_INVARIANTS=1``).  Execution order is
        identical with the sanitizer on or off — the golden
        determinism tests run both ways.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        check_invariants: Optional[bool] = None,
    ) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, Event]] = []
        # Scheduled, not-yet-cancelled, not-yet-fired events; cancelled
        # entries stay in the heap until they surface.
        self._live = 0
        self._check = (
            _invariants.enabled
            if check_invariants is None
            else bool(check_invariants)
        )
        self._sequence = itertools.count()
        self._running = False
        self._stopped = False
        self._events_executed = 0

    # ------------------------------------------------------------------
    # clock and queue inspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of event callbacks executed so far."""
        return self._events_executed

    @property
    def pending_count(self) -> int:
        """Number of scheduled, not-yet-cancelled events (O(1))."""
        return self._live

    def peek(self) -> Optional[float]:
        """Return the time of the next live event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2]._cancelled:
                return entry[0]
            heappop(heap)
        return None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now.

        Parameters
        ----------
        delay:
            Non-negative offset from the current clock.
        callback:
            Zero-argument callable.

        Returns
        -------
        Event
            Handle that may be used to cancel the event.

        Raises
        ------
        SimulationError
            If ``delay`` is negative or not finite.
        """
        delay = float(delay)
        time = self._now + delay
        # NaN fails the >= test; +inf and overflow fail the < test.
        if delay >= 0.0 and time < _INF:
            event = Event(time, callback, self)
            self._live += 1
            heappush(self._heap, (time, next(self._sequence), event))
            return event
        raise SimulationError(
            f"delay must be non-negative and finite, got {delay!r}"
        )

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``.

        ``time`` must not precede the current clock.
        """
        time = float(time)
        if math.isnan(time) or math.isinf(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        event = Event(time, callback, self)
        self._live += 1
        heappush(self._heap, (time, next(self._sequence), event))
        return event

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single earliest pending event.

        Returns
        -------
        bool
            ``True`` if an event was executed, ``False`` if the
            calendar was empty.
        """
        heap = self._heap
        while heap:
            time, _, event = heappop(heap)
            if event._cancelled:
                continue
            event._owner = None
            self._live -= 1
            if self._check:
                _invariants.check_time_monotonic(self._now, time, "Simulator.step")
            self._now = time
            self._events_executed += 1
            event.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly
            after ``until`` and advance the clock to exactly ``until``.
            Events scheduled at ``until`` itself *are* executed.  The
            clock only jumps to ``until`` when the queue is drained
            past it — if :meth:`stop` or ``max_events`` ended the run
            with events still pending at or before ``until``, the
            clock stays at the last executed event so a later
            :meth:`run` resumes without moving time backwards.
        max_events:
            Optional hard cap on the number of events to execute, a
            guard against accidental infinite event cascades.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        self._stopped = False
        executed = 0
        heap = self._heap
        check = self._check
        horizon = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        try:
            # An event leaves the heap only when it fires, so a run cut
            # short by stop() or max_events resumes exactly where it
            # left off, even inside a same-timestamp run.
            while heap and not self._stopped and executed < budget:
                time, _, event = heap[0]
                if event._cancelled:
                    heappop(heap)
                    continue
                if time > horizon:
                    break
                heappop(heap)
                event._owner = None
                self._live -= 1
                if check:
                    _invariants.check_time_monotonic(self._now, time, "Simulator.run")
                self._now = time
                self._events_executed += 1
                event.callback()
                executed += 1
        finally:
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            next_time = self.peek()
            if next_time is None or next_time > until:
                self._now = until

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def clear(self) -> None:
        """Cancel all pending events and empty the calendar."""
        for entry in self._heap:
            entry[2]._owner = None
        self._heap.clear()
        self._live = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.6g}, pending={self.pending_count}, "
            f"executed={self._events_executed})"
        )
