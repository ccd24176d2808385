"""Unit tests for moving-window stats and the command center."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.service.command_center import CommandCenter
from repro.service.records import StageRecord
from repro.service.window import LatencyWindow

from tests.conftest import make_query, submit_two_stage_query


class TestLatencyWindow:
    def test_averages(self):
        window = LatencyWindow(10.0)
        window.add(1.0, queuing=2.0, serving=4.0)
        window.add(2.0, queuing=4.0, serving=6.0)
        assert window.avg_queuing(2.0) == pytest.approx(3.0)
        assert window.avg_serving(2.0) == pytest.approx(5.0)
        assert window.avg_processing(2.0) == pytest.approx(8.0)

    def test_eviction_by_age(self):
        window = LatencyWindow(10.0)
        window.add(0.0, 1.0, 1.0)
        window.add(5.0, 3.0, 3.0)
        assert window.avg_queuing(11.0) == pytest.approx(3.0)  # first evicted
        assert window.count(16.0) == 0

    def test_empty_window_returns_none(self):
        window = LatencyWindow(10.0)
        assert window.avg_queuing(0.0) is None
        assert window.avg_serving(0.0) is None
        assert window.p99_processing(0.0) is None

    def test_p99_on_small_samples_is_max(self):
        window = LatencyWindow(100.0)
        for time, value in enumerate([1.0, 5.0, 3.0]):
            window.add(float(time), value, 0.0)
        assert window.p99_queuing(3.0) == pytest.approx(5.0)

    def test_out_of_order_samples_are_inserted_sorted(self):
        window = LatencyWindow(10.0)
        window.add(5.0, 1.0, 1.0)
        window.add(2.0, 9.0, 9.0)  # late-arriving early sample
        # Evicting at t=13 must drop the t=2 sample, not the t=5 one.
        assert window.count(13.0) == 1
        assert window.avg_queuing(13.0) == pytest.approx(1.0)

    def test_total_ingested_counts_evicted(self):
        window = LatencyWindow(1.0)
        window.add(0.0, 1.0, 1.0)
        window.add(10.0, 1.0, 1.0)
        assert window.count(10.0) == 1
        assert window.total_ingested == 2

    def test_out_of_order_ingestion_preserves_eviction_order(self):
        """Evictions must always drop oldest-first, however samples arrived.

        Interleaves in-order and late samples, then slides the window
        forward one cutoff at a time: at each step exactly the samples
        older than the cutoff are gone and the survivors' aggregates match
        a freshly built window over the same live set.
        """
        window = LatencyWindow(10.0)
        arrivals = [4.0, 1.0, 7.0, 3.0, 6.0, 2.0, 9.0, 5.0, 8.0]
        for time in arrivals:
            window.add(time, queuing=time, serving=2.0 * time)
        for cutoff in range(0, 21):
            now = float(cutoff)
            live = sorted(t for t in arrivals if t >= now - 10.0)
            assert window.count(now) == len(live)
            if live:
                assert window.avg_queuing(now) == pytest.approx(
                    sum(live) / len(live)
                )
                assert window.p99_serving(now) == pytest.approx(2.0 * max(live))

    def test_long_stream_keeps_aggregates_exact(self):
        window = LatencyWindow(1.0)
        for step in range(500):
            window.add(float(step), queuing=float(step), serving=1.0)
        assert window.total_ingested == 500
        assert window.count(499.0) == 2  # t=498 and t=499 survive
        assert window.avg_queuing(499.0) == pytest.approx(498.5)

    def test_equal_timestamps_keep_arrival_order(self):
        window = LatencyWindow(10.0)
        window.add(4.0, 1e16, 0.0)
        window.add(5.0, 1.0, 0.0)
        window.add(7.0, 0.0, 0.0)
        window.add(5.0, -1e16, 0.0)  # late duplicate timestamp
        # The late sample sorts *after* the first t=5 sample, so the sum
        # runs ((1e16 + 1.0) - 1e16) + 0.0 == 0.0 and the average is 0.0;
        # the other tie order sums ((1e16 - 1e16) + 1.0) + 0.0 == 1.0, an
        # average of 0.25.
        assert window.avg_queuing(7.0) == 0.0

    @pytest.mark.parametrize("window_s", [math.nan, math.inf, 0.0, -1.0])
    def test_nonpositive_window_rejected(self, window_s):
        with pytest.raises(ConfigurationError):
            LatencyWindow(window_s)


class TestCommandCenterIngestion:
    def test_ingests_records_on_completion(self, sim, two_stage_app, command_center):
        submit_two_stage_query(two_stage_app, 1)
        sim.run()
        instance_a = two_stage_app.stage("A").instances[0]
        instance_b = two_stage_app.stage("B").instances[0]
        assert command_center.sample_count(instance_a) == 1
        assert command_center.sample_count(instance_b) == 1

    def test_avg_serving_matches_observed(self, sim, two_stage_app, command_center):
        submit_two_stage_query(two_stage_app, 1)
        sim.run()
        instance_b = two_stage_app.stage("B").instances[0]
        assert command_center.avg_serving(instance_b) == pytest.approx(1.0 * 2 / 3)

    def test_avg_queuing_zero_when_unqueued(self, sim, two_stage_app, command_center):
        submit_two_stage_query(two_stage_app, 1)
        sim.run()
        instance_b = two_stage_app.stage("B").instances[0]
        assert command_center.avg_queuing(instance_b) == pytest.approx(0.0)

    def test_all_latencies_collected(self, sim, two_stage_app, command_center):
        for qid in range(3):
            submit_two_stage_query(two_stage_app, qid)
        sim.run()
        assert len(command_center.all_latencies) == 3
        summary = command_center.summary()
        assert summary.count == 3

    def test_recent_latency_window(self, sim, two_stage_app, command_center):
        submit_two_stage_query(two_stage_app, 1)
        sim.run()
        assert command_center.recent_latency_avg() is not None
        assert command_center.recent_count() == 1
        sim.run(until=sim.now + 100.0)
        assert command_center.recent_latency_avg() is None  # aged out
        assert command_center.recent_latency_max() is None

    def test_recent_latency_max_tracks_worst(self, sim, two_stage_app, command_center):
        submit_two_stage_query(two_stage_app, 1, b=1.0)
        submit_two_stage_query(two_stage_app, 2, b=3.0)
        sim.run()
        assert command_center.recent_latency_max() > command_center.recent_latency_avg()

    def test_unread_center_stays_bounded(self, sim, two_stage_app):
        # Nothing reads this center, so only ingest itself, trimming every
        # window once the first query filed since the last trim is a
        # window old, keeps it bounded.
        center = CommandCenter(sim, two_stage_app, window_s=10.0)
        peak = 0
        for qid in range(100):  # one query a second for ten windows
            submit_two_stage_query(two_stage_app, qid)
            sim.run(until=qid + 1.0)
            windows = center._instance_windows.values()
            # The samples are stored column by column, one list a field.
            for window in windows:
                columns = (window._seqs, window._queuing, window._serving)
                assert all(len(column) == len(window._times) for column in columns)
            peak = max(peak, sum(len(window._times) for window in windows))
        assert center.stats_messages == 100
        # Two records a query; a trim leaves at most 11 queries' samples
        # and at most 11 more are filed before the next: two windows' worth.
        assert 0 < peak <= 2 * 2 * 11

    def test_ingest_at_the_read_instant_reaches_the_stage_pool(
        self, sim, two_stage_app, command_center
    ):
        submit_two_stage_query(two_stage_app, 1, b=1.0)
        sim.run()
        fresh = two_stage_app.stage("B").launch_instance(0)
        # Served from the stage pool, which is cached for this instant.
        assert command_center.avg_serving(fresh) == pytest.approx(1.0 * 2 / 3)
        instance_b = two_stage_app.stage("B").instances[0]
        now = sim.now
        query = make_query(2, A=0.0, B=1.0)
        query.arrival_time, query.completion_time = now - 1.0, now
        query.records.append(
            StageRecord(instance_b.iid, instance_b.name, "B", now - 1.0, now - 1.0, now)
        )
        command_center.ingest(query)
        # Same instant: the second read must see the new 1.0 s sample.
        assert command_center.avg_serving(fresh) == pytest.approx(
            (1.0 * 2 / 3 + 1.0) / 2
        )


class TestFreshInstanceFallbacks:
    """A new instance must not report a zero metric (DESIGN.md rationale)."""

    def test_serving_falls_back_to_stage_pool(self, sim, two_stage_app, command_center):
        submit_two_stage_query(two_stage_app, 1)
        sim.run()
        fresh = two_stage_app.stage("B").launch_instance(0)
        # No samples of its own: falls back to stage B's pooled average.
        assert command_center.avg_serving(fresh) == pytest.approx(1.0 * 2 / 3)

    def test_serving_falls_back_to_profile_without_any_data(
        self, sim, two_stage_app, command_center
    ):
        instance_b = two_stage_app.stage("B").instances[0]
        # No queries at all: profile expectation at the current frequency.
        expected = instance_b.profile.mean_serving_time(instance_b.frequency_ghz)
        assert command_center.avg_serving(instance_b) == pytest.approx(expected)

    def test_queuing_falls_back_to_zero(self, sim, two_stage_app, command_center):
        instance_b = two_stage_app.stage("B").instances[0]
        assert command_center.avg_queuing(instance_b) == 0.0

    def test_p99_falls_back_to_avg(self, sim, two_stage_app, command_center):
        instance_b = two_stage_app.stage("B").instances[0]
        assert command_center.p99_serving(instance_b) == command_center.avg_serving(
            instance_b
        )

    @pytest.mark.parametrize("span", [math.nan, math.inf, 0.0, -1.0])
    def test_invalid_windows_rejected(self, sim, two_stage_app, span):
        with pytest.raises(ConfigurationError):
            CommandCenter(sim, two_stage_app, window_s=span)
        with pytest.raises(ConfigurationError):
            CommandCenter(sim, two_stage_app, e2e_window_s=span)
