"""Unit tests for latency metrics (Table 1, Equation 1) and bottleneck id."""

from __future__ import annotations

import pytest

from repro.core.bottleneck import BottleneckIdentifier
from repro.core.metrics import MetricKind, compute_metric, equation1_metric
from repro.errors import ServiceError
from repro.service.command_center import CommandCenter
from repro.service.application import Application
from repro.service.instance import Job
from repro.service.query import Query
from repro.service.window import LatencyWindow

from tests.conftest import submit_two_stage_query


class TestEquation1:
    def test_formula(self):
        # LatencyMetric = L * q + s
        assert equation1_metric(3, 2.0, 1.0) == pytest.approx(7.0)

    def test_empty_queue_reduces_to_serving(self):
        assert equation1_metric(0, 5.0, 1.5) == pytest.approx(1.5)

    def test_queue_length_amplifies_queuing_history(self):
        busy = equation1_metric(10, 0.5, 1.0)
        idle = equation1_metric(1, 0.5, 1.0)
        assert busy > idle

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            equation1_metric(-1, 1.0, 1.0)
        with pytest.raises(ValueError):
            equation1_metric(1, -1.0, 1.0)
        with pytest.raises(ValueError):
            equation1_metric(1, 1.0, -1.0)


class TestComputeMetric:
    @pytest.fixture
    def loaded(self, sim, two_stage_app, command_center):
        for qid in range(5):
            submit_two_stage_query(two_stage_app, qid)
        sim.run()
        return two_stage_app, command_center

    def test_powerchief_metric_uses_realtime_queue(self, loaded):
        app, command_center = loaded
        instance = app.stage("B").instances[0]
        expected = equation1_metric(
            instance.queue_length,
            command_center.avg_queuing(instance),
            command_center.avg_serving(instance),
        )
        assert compute_metric(command_center, instance) == pytest.approx(expected)

    def test_avg_processing_is_sum_of_parts(self, loaded):
        app, command_center = loaded
        instance = app.stage("B").instances[0]
        total = compute_metric(command_center, instance, MetricKind.AVG_PROCESSING)
        queuing = compute_metric(command_center, instance, MetricKind.AVG_QUEUING)
        serving = compute_metric(command_center, instance, MetricKind.AVG_SERVING)
        assert total == pytest.approx(queuing + serving)

    def test_p99_processing_is_joint_percentile(self, loaded):
        app, command_center = loaded
        instance = app.stage("B").instances[0]
        total = compute_metric(command_center, instance, MetricKind.P99_PROCESSING)
        assert total == pytest.approx(command_center.p99_processing(instance))
        # Percentiles are subadditive over the joint distribution: the
        # true tail can never exceed the sum of the marginal tails.
        queuing = compute_metric(command_center, instance, MetricKind.P99_QUEUING)
        serving = compute_metric(command_center, instance, MetricKind.P99_SERVING)
        assert total <= queuing + serving + 1e-12

    def test_p99_processing_anticorrelated_regression(self, loaded):
        """p99(q+s) must be the percentile of the *sums*, not p99(q)+p99(s).

        With anti-correlated queuing/serving samples the two formulas
        disagree sharply: every query here has q + s == 10, so the joint
        p99 is exactly 10, while the sum of marginal p99s is 19.  The
        historical bug computed the latter, overstating the tail.
        """
        app, command_center = loaded
        instance = app.stage("B").instances[0]
        window = LatencyWindow(command_center.window_s)
        now = command_center.sim.now
        for offset in range(10):
            queuing = float(offset)
            window.add(now + offset * 1e-3, queuing, 10.0 - queuing)
        command_center._instance_windows[instance.name] = window
        joint = compute_metric(command_center, instance, MetricKind.P99_PROCESSING)
        assert joint == pytest.approx(10.0)
        marginal_sum = compute_metric(
            command_center, instance, MetricKind.P99_QUEUING
        ) + compute_metric(command_center, instance, MetricKind.P99_SERVING)
        assert marginal_sum == pytest.approx(19.0)
        assert joint < marginal_sum

    def test_every_metric_kind_computes(self, loaded):
        app, command_center = loaded
        instance = app.stage("A").instances[0]
        for kind in MetricKind:
            value = compute_metric(command_center, instance, kind)
            assert value >= 0.0


class TestBottleneckIdentifier:
    def test_slow_stage_is_bottleneck(self, sim, two_stage_app, command_center):
        for qid in range(5):
            submit_two_stage_query(two_stage_app, qid)
        sim.run()
        identifier = BottleneckIdentifier(command_center)
        bottleneck = identifier.bottleneck(two_stage_app)
        assert bottleneck.instance.stage_name == "B"

    def test_ranked_is_sorted_fast_to_slow(self, sim, two_stage_app, command_center):
        for qid in range(5):
            submit_two_stage_query(two_stage_app, qid)
        sim.run()
        identifier = BottleneckIdentifier(command_center)
        ranked = identifier.ranked(two_stage_app)
        metrics = [entry.metric for entry in ranked]
        assert metrics == sorted(metrics)

    def test_queue_buildup_flips_bottleneck(self, sim, two_stage_app, command_center):
        # Historical stats say B is slower, but a pile-up at A right now
        # must make A the bottleneck (the whole point of Equation 1).
        for qid in range(3):
            submit_two_stage_query(two_stage_app, qid)
        sim.run()
        for qid in range(10, 40):
            submit_two_stage_query(two_stage_app, qid, a=1.0, b=0.1)
        identifier = BottleneckIdentifier(command_center)
        sim.run(until=sim.now + 3.0)
        bottleneck = identifier.bottleneck(two_stage_app)
        assert bottleneck.instance.stage_name == "A"

    def test_spread(self, sim, two_stage_app, command_center):
        for qid in range(5):
            submit_two_stage_query(two_stage_app, qid)
        sim.run()
        identifier = BottleneckIdentifier(command_center)
        ranked = identifier.ranked(two_stage_app)
        assert identifier.spread(two_stage_app) == pytest.approx(
            ranked[-1].metric - ranked[0].metric
        )

    def test_empty_application_rejected(self, sim, machine, command_center):
        empty = Application("empty", sim, machine)
        identifier = BottleneckIdentifier(command_center)
        with pytest.raises(ServiceError):
            identifier.ranked(empty)

    def test_alternative_metric_kind(self, sim, two_stage_app, command_center):
        for qid in range(5):
            submit_two_stage_query(two_stage_app, qid)
        sim.run()
        identifier = BottleneckIdentifier(command_center, MetricKind.AVG_SERVING)
        bottleneck = identifier.bottleneck(two_stage_app)
        assert bottleneck.instance.stage_name == "B"

    def test_only_equation1_follows_a_burst(self, sim, two_stage_app, command_center):
        # Section 4.2 on Table 1: history says B is the slow service, then
        # a burst piles onto A.  Every historical metric still points at
        # B; the Equation-1 metric follows the queue to A.
        for qid in range(50):
            submit_two_stage_query(two_stage_app, qid)
        sim.run()
        instance_a = two_stage_app.stage("A").instances[0]
        instance_b = two_stage_app.stage("B").instances[0]
        for qid in range(100, 140):
            instance_a.enqueue(
                Job(Query(qid, {"A": 0.2}), work=0.2, on_done=lambda query: None)
            )
        for kind in (
            MetricKind.AVG_SERVING,
            MetricKind.AVG_PROCESSING,
            MetricKind.P99_SERVING,
            MetricKind.P99_PROCESSING,
        ):
            metric_a = compute_metric(command_center, instance_a, kind)
            metric_b = compute_metric(command_center, instance_b, kind)
            assert metric_b > metric_a, f"{kind} should still favour B"
        assert compute_metric(command_center, instance_a) > compute_metric(
            command_center, instance_b
        )
        identifier = BottleneckIdentifier(command_center, MetricKind.POWERCHIEF)
        assert identifier.bottleneck(two_stage_app).instance is instance_a
