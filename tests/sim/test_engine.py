"""Unit tests for the event calendar (repro.sim.engine)."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_initial_clock_is_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(4.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.5]
        assert sim.now == 4.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.0]

    def test_negative_delay_rejected(self):
        # At t=1e6 a tiny negative delay rounds away in ``now + delay``;
        # the delay itself must still be refused.
        for start_time, delay in ((0.0, -1.0), (0.0, -1e-12), (1e6, -1e-12)):
            sim = Simulator(start_time=start_time)
            with pytest.raises(SimulationError):
                sim.schedule(delay, lambda: None)

    def test_past_absolute_time_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(3.0, lambda: None)

    def test_nan_and_inf_times_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("inf"), lambda: None)

    def test_nan_and_inf_delays_rejected(self):
        # NaN fails every comparison, so it must not slip through the
        # relative-delay fast path either (math.isnan, not ``x != x``).
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(-float("inf"), lambda: None)

    def test_zero_delay_event_fires_at_current_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [1.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_count == 1

    def test_peek_skips_cancelled_head(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek() == 2.0


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0
        assert sim.pending_count == 1

    def test_run_until_includes_events_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run(until=3.0)
        assert fired == [3]

    def test_run_resumes_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        sim.run()
        assert fired == [1, 5]

    def test_stop_halts_event_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_max_events_caps_execution(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_step_executes_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_clear_empties_calendar(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.clear()
        assert sim.pending_count == 0
        assert sim.peek() is None

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        error = {}

        def inner():
            try:
                sim.run()
            except SimulationError as exc:
                error["raised"] = exc

        sim.schedule(1.0, inner)
        sim.run()
        assert "raised" in error

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestCascades:
    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, lambda: chain(n + 1))

        sim.schedule(1.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0

    def test_run_until_advances_clock_even_with_no_events(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0


class TestMaxEventsClockRegression:
    """``run(until=..., max_events=...)`` must not jump the clock past
    still-pending events: doing so made a later ``run()`` execute those
    events with time moving backwards."""

    def test_clock_stays_at_last_event_when_cap_fires(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.run(until=10.0, max_events=2)
        assert sim.now == 2.0
        assert sim.pending_count == 1

    def test_resumed_run_never_moves_time_backwards(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: fired.append(sim.now))
        sim.run(until=10.0, max_events=2)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert fired == sorted(fired)
        assert sim.now == 10.0

    def test_clock_advances_to_until_when_cap_not_hit(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=10.0, max_events=5)
        assert sim.now == 10.0

    def test_time_weighted_stats_survive_capped_run(self):
        """The original symptom: TimeWeightedStats raised
        'clock moved backwards' when recording in the resumed run."""
        from repro.sim.stats import TimeWeightedStats

        sim = Simulator()
        stats = TimeWeightedStats(clock=lambda: sim.now)
        stats.record(0.0)
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: stats.record(1.0))
        sim.run(until=10.0, max_events=2)
        sim.run(until=10.0)
        assert 0.0 < stats.mean < 1.0


class TestLiveCountMaintenance:
    """pending_count is now a maintained counter; these pin the
    bookkeeping against every path that could skew it."""

    def test_cancel_after_fire_is_a_counting_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        handle.cancel()
        assert sim.pending_count == 1

    def test_cancel_after_clear_is_a_counting_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.clear()
        handle.cancel()
        assert sim.pending_count == 0

    def test_interleaved_cancel_schedule_run_exact(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for handle in handles[::2]:
            handle.cancel()
        assert sim.pending_count == 5
        sim.run(until=4.0)  # fires the live events at 2.0 and 4.0
        assert sim.pending_count == 3
