"""Unit tests for the SLO burn-rate tracker."""

from __future__ import annotations

import dataclasses
import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloTracker
from repro.service.query import Query


class TestValidation:
    def test_rejects_nonpositive_target(self):
        for target in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                SloTracker(target_s=target)

    @pytest.mark.parametrize("goal", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_goal_outside_open_interval(self, goal):
        with pytest.raises(ConfigurationError):
            SloTracker(target_s=1.0, attainment_goal=goal)

    @pytest.mark.parametrize("window_s", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_nonpositive_window(self, window_s):
        with pytest.raises(ConfigurationError):
            SloTracker(target_s=1.0, window_s=window_s)

    def test_rejects_nonpositive_event_bound(self):
        with pytest.raises(ConfigurationError):
            SloTracker(target_s=1.0, max_events=0)


class TestAccounting:
    def _fed(self, outcomes, goal=0.9, window_s=60.0):
        tracker = SloTracker(
            target_s=1.0, attainment_goal=goal, window_s=window_s
        )
        for time, ok in outcomes:
            tracker._ingest(time, ok)
        return tracker

    def test_attainment_counts_violations(self):
        tracker = self._fed([(float(i), i % 4 != 0) for i in range(20)])
        assert tracker.total == 20
        assert tracker.violations == 5
        assert math.isclose(tracker.attainment(), 15 / 20)

    def test_empty_tracker_attains_fully_and_burns_nothing(self):
        tracker = SloTracker(target_s=1.0)
        assert tracker.attainment() == 1.0
        assert tracker.windowed_attainment() == 1.0
        assert tracker.burn_rate() == 0.0

    def test_burn_rate_one_means_budget_pace(self):
        # Goal 0.9 tolerates a 10% violation rate; exactly 1-in-10
        # violations inside the window burns at exactly budget pace.
        tracker = self._fed(
            [(float(i), i != 5) for i in range(10)], goal=0.9
        )
        assert math.isclose(tracker.burn_rate(now=9.0), 1.0)

    def test_burn_rate_scales_with_violation_rate(self):
        tracker = self._fed(
            [(float(i), i % 2 == 0) for i in range(10)], goal=0.9
        )
        assert math.isclose(tracker.burn_rate(now=9.0), 5.0)

    def test_window_forgets_old_violations(self):
        # Violations at t<10 leave the 60 s window once now passes 70.
        events = [(float(i), False) for i in range(10)]
        events += [(100.0 + i, True) for i in range(10)]
        tracker = self._fed(events, window_s=60.0)
        assert math.isclose(tracker.attainment(), 0.5)
        assert tracker.windowed_attainment(now=109.0) == 1.0
        assert tracker.burn_rate(now=109.0) == 0.0

    def test_late_report_still_counts_the_settles_behind_it(self):
        # rpc-delay/rpc-loss faults can deliver a completion report after
        # a later settle: 5.0 arrives after 10.0.  The window at 65 s is
        # (5, 65], so it holds the violation at 10.0 and the ok at 50.0.
        tracker = SloTracker(target_s=1.0, window_s=60.0)
        for time, ok in [(10.0, False), (5.0, True), (50.0, True)]:
            tracker._ingest(time, ok)
        assert math.isclose(tracker.burn_rate(now=65.0), 50.0)
        assert math.isclose(tracker.windowed_attainment(now=65.0), 0.5)

    def test_event_bound_evicts_by_arrival_not_by_time(self):
        # The cap drops the earliest *arrival* (the violation at 10.0),
        # even though the late report at 5.0 is older.
        tracker = SloTracker(target_s=1.0, window_s=60.0, max_events=2)
        for time, ok in [(10.0, False), (5.0, True), (50.0, True)]:
            tracker._ingest(time, ok)
        assert tracker._window_counts(65.0) == (1, 1)
        assert tracker._window_counts(50.0) == (2, 2)

    def test_timeline_buckets_burn(self):
        tracker = self._fed(
            [(float(i), i >= 10) for i in range(20)], goal=0.9
        )
        timeline = tracker.timeline(10.0)
        assert [bucket["t"] for bucket in timeline] == [0.0, 10.0]
        assert timeline[0]["violations"] == 10.0
        assert math.isclose(timeline[0]["burn_rate"], 10.0)
        assert timeline[1]["violations"] == 0.0

    def test_timeline_rejects_nonpositive_bucket(self):
        with pytest.raises(ConfigurationError):
            SloTracker(target_s=1.0).timeline(0.0)

    def test_to_dict_carries_the_archival_fields(self):
        tracker = self._fed([(float(i), i != 3) for i in range(8)])
        payload = tracker.to_dict()
        assert payload["target_s"] == 1.0
        assert payload["total"] == 8
        assert payload["violations"] == 1
        assert payload["timeline"], "timeline missing from archive payload"

    def test_overall_counters_stay_exact_past_event_bound(self):
        tracker = SloTracker(target_s=1.0, max_events=4)
        for i in range(10):
            tracker._ingest(float(i), False)
        assert tracker.total == 10
        assert tracker.violations == 10

    def test_judging_a_query_leaves_it_untouched(self):
        # The tracker is a completion/failure listener: the queries it
        # judges go on to the run's results, so it reads and never writes.
        tracker = SloTracker(target_s=1.0)
        late = Query(1, {"ASR": 1.0}, arrival_time=2.0, completion_time=5.0)
        failed = Query(2, {"ASR": 1.0}, arrival_time=3.0, failed_time=6.0)
        before = [dataclasses.asdict(query) for query in (late, failed)]
        tracker.observe(late)
        tracker.observe_failure(failed)
        assert [dataclasses.asdict(query) for query in (late, failed)] == before
        assert tracker.total == 2
        assert tracker.violations == 2


class TestMetricsExport:
    def test_gauges_and_counter_follow_ingest(self):
        registry = MetricsRegistry()
        tracker = SloTracker(
            target_s=1.0, attainment_goal=0.9, registry=registry
        )
        tracker._ingest(1.0, True)
        tracker._ingest(2.0, False)
        counter = registry.counter("repro_slo_queries_total")
        assert counter.value(outcome="ok") == 1.0
        assert counter.value(outcome="violation") == 1.0
        assert math.isclose(
            registry.gauge("repro_slo_attainment").value(), 0.5
        )
        assert registry.gauge("repro_slo_burn_rate").value() > 0.0


# ----------------------------------------------------------------------
# Property: the bisected window against the original backward scan.


def _scan_counts(events, last_time, window_s, now):
    """The original window count: walk back from the newest arrival and
    stop at the first settle at or before the window's edge.  Exact only
    when settles arrive in time order."""
    at = last_time if now is None else now
    horizon = at - window_s
    ok = seen = 0
    for time, was_ok in reversed(events):
        if time <= horizon or time > at:
            if time <= horizon:
                break
            continue
        seen += 1
        if was_ok:
            ok += 1
    return ok, seen


def _exact_counts(events, last_time, window_s, now):
    """Brute force over every retained settle, in any arrival order."""
    at = last_time if now is None else now
    inside = [ok for time, ok in events if at - window_s < time <= at]
    return sum(inside), len(inside)


# Coarse steps make settles share times and land exactly on window edges.
_GAPS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
_WINDOWS = st.one_of(
    st.sampled_from([1.0, 2.0, 5.0]),
    st.floats(min_value=0.25, max_value=30.0, allow_nan=False),
)


@st.composite
def _settle_runs(draw, jitter):
    """(time, ok) settles on a rising clock; with ``jitter`` each may be
    reported up to 3 s behind the clock, so arrivals go out of order."""
    steps = draw(
        st.lists(
            st.tuples(
                _GAPS,
                st.booleans(),
                st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
                if jitter
                else st.just(0.0),
            ),
            min_size=1,
            max_size=80,
        )
    )
    clock = 3.0
    settles = []
    for gap, ok, behind in steps:
        clock += gap
        settles.append((clock - behind, ok))
    return settles


def _check_window(settles, window_s, max_events, in_order):
    tracker = SloTracker(
        target_s=1.0, window_s=window_s, max_events=max_events
    )
    retained: deque[tuple[float, bool]] = deque(maxlen=max_events)
    last_time = 0.0

    def agree(now):
        counts = tracker._window_counts(now)
        assert counts == _exact_counts(retained, last_time, window_s, now)
        if in_order:
            assert counts == _scan_counts(retained, last_time, window_s, now)

    for time, ok in settles:
        tracker._ingest(time, ok)
        retained.append((time, ok))
        last_time = max(last_time, time)
        assert list(tracker._events) == list(retained)
        agree(time)
    first = min(time for time, _ in settles)
    for now in (
        None,
        last_time,
        last_time - window_s / 2.0,
        last_time - window_s,
        last_time + window_s / 2.0,
        last_time + window_s,
        last_time + 2.0 * window_s,
        first,
        first - 1.0,
    ):
        agree(now)


@settings(max_examples=150, deadline=None)
@given(
    settles=_settle_runs(jitter=False),
    window_s=_WINDOWS,
    max_events=st.integers(min_value=1, max_value=100),
)
def test_in_order_window_matches_the_scan(settles, window_s, max_events):
    _check_window(settles, window_s, max_events, in_order=True)


@settings(max_examples=150, deadline=None)
@given(
    settles=_settle_runs(jitter=True),
    window_s=_WINDOWS,
    max_events=st.integers(min_value=1, max_value=100),
)
def test_any_order_window_counts_every_retained_settle(
    settles, window_s, max_events
):
    _check_window(settles, window_s, max_events, in_order=False)
