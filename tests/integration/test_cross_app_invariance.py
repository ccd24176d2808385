"""Cross-application invariance: properties every workload must satisfy.

The same structural guarantees — budget compliance, query conservation,
record completeness, policy ordering direction — parametrized over every
(application, policy) combination the evaluation uses.
"""

from __future__ import annotations

import pytest

from repro.core.actions import FrequencyChangeAction, InstanceLaunchAction
from repro.scenario import LATENCY_POLICIES, QOS_POLICIES, ScenarioSpec, run_scenario
from repro.scenario.config import (
    TABLE2_POWER_BUDGET_WATTS,
    TABLE3_SIRIUS,
    TABLE3_WEBSEARCH,
)
from repro.workloads.nlp import nlp_load_levels
from repro.workloads.sirius import sirius_load_levels


LEVELS = {"sirius": sirius_load_levels(), "nlp": nlp_load_levels()}
DURATION = 300.0


@pytest.mark.parametrize("app", ["sirius", "nlp"])
@pytest.mark.parametrize("policy", LATENCY_POLICIES)
class TestLatencyRunInvariants:
    @pytest.fixture()
    def result(self, app, policy):
        return run_scenario(
            ScenarioSpec.latency(
                app,
                policy,
                ("constant", LEVELS[app].medium_qps),
                DURATION,
                seed=7,
            )
        )

    def test_budget_never_exceeded_in_any_sample(self, app, policy, result):
        for sample in result.state_samples:
            assert sample.total_power_watts <= TABLE2_POWER_BUDGET_WATTS + 1e-6

    def test_queries_conserved(self, app, policy, result):
        assert 0 < result.queries_completed <= result.queries_submitted
        assert result.latency.count == result.queries_completed

    def test_latency_summary_is_ordered(self, app, policy, result):
        summary = result.latency
        assert 0.0 < summary.p50 <= summary.p95 <= summary.p99 <= summary.max
        assert summary.mean <= summary.max

    def test_stage_pools_never_empty(self, app, policy, result):
        for sample in result.state_samples:
            for stage in sample.stages:
                assert stage.instance_count >= 1

    def test_action_log_is_time_ordered(self, app, policy, result):
        times = [action.time for action in result.actions]
        assert times == sorted(times)

    def test_static_policy_never_acts(self, app, policy, result):
        if policy != "static":
            pytest.skip("only meaningful for the static baseline")
        assert not any(
            isinstance(action, (FrequencyChangeAction, InstanceLaunchAction))
            for action in result.actions
        )


@pytest.mark.parametrize(
    "setup,rate",
    [(TABLE3_SIRIUS, 7.0), (TABLE3_WEBSEARCH, 8.0)],
    ids=["sirius", "websearch"],
)
@pytest.mark.parametrize("policy", QOS_POLICIES)
class TestQosRunInvariants:
    @pytest.fixture()
    def result(self, setup, rate, policy):
        return run_scenario(
            ScenarioSpec.qos(setup.app, policy, rate, 150.0, seed=7)
        )

    def test_power_fraction_bounded(self, setup, rate, policy, result):
        for sample in result.qos_samples:
            assert 0.0 < sample.power_fraction <= 1.0 + 1e-9

    def test_saving_consistent_with_fraction(self, setup, rate, policy, result):
        assert result.power_saving_fraction == pytest.approx(
            1.0 - result.average_power_fraction
        )

    def test_baseline_never_saves(self, setup, rate, policy, result):
        if policy != "baseline":
            pytest.skip("only meaningful for the baseline")
        assert result.average_power_fraction == pytest.approx(1.0)

    def test_queries_flow(self, setup, rate, policy, result):
        assert result.queries_completed > 0
