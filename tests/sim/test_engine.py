"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

import math

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority


class TestScheduling:
    def test_initial_time_is_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_negative_start_time_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(start_time=-1.0)

    def test_non_finite_start_time_rejected(self):
        # NaN fails every ordered comparison, so ``start_time < 0.0``
        # alone would let it through.
        for start in (math.nan, math.inf):
            with pytest.raises(SimulationError):
                Simulator(start_time=start)

    def test_schedule_returns_pending_event(self, sim):
        event = sim.schedule(1.0, lambda: None)
        assert event.pending
        assert not event.fired
        assert not event.cancelled

    def test_schedule_in_past_rejected(self, sim):
        # NaN passes every ordered comparison and infinity is never
        # reached; neither may enter the heap.
        for delay in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(SchedulingError):
                sim.schedule(delay, lambda: None)
        assert sim.heap_size == 0

    def test_schedule_at_before_now_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        for time in (0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(SchedulingError):
                sim.schedule_at(time, lambda: None)
        assert sim.heap_size == 0
        assert sim.now == 1.0

    def test_non_callable_action_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(1.0, "not callable")

    def test_zero_delay_is_allowed(self, sim):
        fired = []
        sim.schedule(0.0, fired.append, 1)
        sim.run()
        assert fired == [1]


class TestExecutionOrder:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_priority(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "control", priority=EventPriority.CONTROL)
        sim.schedule(1.0, fired.append, "completion", priority=EventPriority.COMPLETION)
        sim.schedule(1.0, fired.append, "arrival", priority=EventPriority.ARRIVAL)
        sim.run()
        assert fired == ["completion", "arrival", "control"]

    def test_ties_break_by_insertion_order_within_priority(self, sim):
        fired = []
        for label in ("first", "second", "third"):
            sim.schedule(1.0, fired.append, label)
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_nested_scheduling_from_callback(self, sim):
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, fired.append, "inner")

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == 2.0


class TestRunUntil:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.now == 5.0

    def test_run_until_advances_clock_even_without_events(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_run_can_resume_after_until(self, sim):
        fired = []
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        sim.run()
        assert fired == ["late"]

    def test_event_exactly_at_until_fires(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_run_until_past_rejected(self, sim):
        sim.run(until=10.0)
        with pytest.raises(SimulationError):
            sim.run(until=5.0)

    def test_max_events_guard(self, sim):
        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_run_is_not_reentrant(self, sim):
        def recurse():
            sim.run()

        sim.schedule(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []
        assert event.cancelled

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled

    def test_cancel_after_fire_is_noop(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        sim.run()
        event.cancel()
        assert fired == ["x"]
        assert event.fired
        assert not event.cancelled

    def test_cancelled_events_skipped_in_peek(self, sim):
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek() == 2.0


class TestCancelHeavyWorkloads:
    """The live pending counter and heap compaction under mass cancellation."""

    def test_pending_count_tracks_cancellations_live(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending_count == 10
        for index, event in enumerate(events[:4]):
            event.cancel()
            assert sim.pending_count == 10 - (index + 1)
        assert not sim.empty()
        sim.run()
        assert sim.pending_count == 0
        assert sim.empty()
        assert sim.events_processed == 6

    def test_cancel_after_fire_leaves_counters_alone(self, sim):
        event = sim.schedule(1.0, lambda: None)
        later = sim.schedule(2.0, lambda: None)
        sim.step()
        event.cancel()  # already fired: must not decrement anything
        assert sim.pending_count == 1
        assert not sim.empty()
        later.cancel()
        assert sim.pending_count == 0

    def test_double_cancel_decrements_once(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending_count == 1

    def test_heap_compacts_when_cancelled_majority(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(1000)]
        assert sim.heap_size == 1000
        for event in events[:600]:
            event.cancel()
        assert sim.compactions >= 1
        # Compaction shed the cancelled majority (the exact size depends
        # on where the threshold tripped mid-loop).
        assert sim.heap_size < 600
        assert sim.pending_count == 400
        sim.run()
        assert sim.events_processed == 400

    def test_cancelled_counter_survives_a_compaction(self, sim):
        """The event being cancelled is flagged before the owner hears of
        it, so a compaction that call triggers drops it too."""
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        for event in events[:60]:
            event.cancel()
            # Cancelled entries still in the heap, counted from outside.
            assert sim._cancelled_in_queue == sim.heap_size - sim.pending_count
        assert sim.compactions == 1
        sim.run()
        assert sim._cancelled_in_queue == 0
        assert sim.events_processed == 40

    def test_compaction_preserves_firing_order(self, sim):
        fired = []
        events = [
            sim.schedule(float(i + 1), fired.append, i) for i in range(200)
        ]
        for event in events[::2]:  # cancel every even-indexed event
            event.cancel()
        sim.run()
        assert fired == list(range(1, 200, 2))

    def test_compaction_during_run_is_safe(self, sim):
        """A callback that mass-cancels (compacting mid-run) must not derail."""
        fired = []
        victims = [sim.schedule(10.0 + i, fired.append, "victim") for i in range(100)]

        def massacre():
            for event in victims:
                event.cancel()
            fired.append("massacre")

        sim.schedule(1.0, massacre)
        sim.schedule(2.0, fired.append, "survivor")
        sim.run()
        assert fired == ["massacre", "survivor"]
        assert sim.pending_count == 0

    def test_small_queues_never_compact(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for event in events:
            event.cancel()
        # Below the compaction floor: stragglers stay until popped lazily.
        assert sim.compactions == 0
        sim.run()
        assert sim.events_processed == 0


class TestIntrospection:
    def test_events_processed_counter(self, sim):
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_empty_reflects_pending_events(self, sim):
        assert sim.empty()
        event = sim.schedule(1.0, lambda: None)
        assert not sim.empty()
        event.cancel()
        assert sim.empty()

    def test_pending_count(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_count == 2

    def test_peek_on_empty_queue(self, sim):
        assert sim.peek() is None

    def test_step_returns_false_on_empty_queue(self, sim):
        assert sim.step() is False

    def test_step_runs_single_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"]

    def test_callback_exception_propagates(self, sim):
        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
