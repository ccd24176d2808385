"""Unit tests for single latency and QoS runs through ``run_scenario``.

These use short durations: they verify plumbing and determinism, not the
paper's shapes (the integration tests and benches do that).
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.scenario import (
    LATENCY_POLICIES,
    QOS_POLICIES,
    ScenarioSpec,
    StageAllocation,
    run_scenario,
)


DURATION = 120.0
RATE = 1.0


def latency_run(app, policy, duration_s=DURATION, rate=RATE, **kwargs):
    return run_scenario(
        ScenarioSpec.latency(app, policy, ("constant", rate), duration_s, **kwargs)
    )


def qos_run(app, policy, rate_qps=4.0, duration_s=DURATION, seed=1):
    return run_scenario(ScenarioSpec.qos(app, policy, rate_qps, duration_s, seed=seed))


class TestLatencyRunner:
    def test_produces_complete_result(self):
        result = latency_run("sirius", "static", seed=1)
        assert result.app == "sirius"
        assert result.policy == "static"
        assert result.queries_completed > 0
        assert result.queries_completed <= result.queries_submitted
        assert result.latency.count == result.queries_completed
        assert result.average_power_watts > 0.0
        assert result.state_samples

    def test_same_seed_is_deterministic(self):
        first = latency_run("sirius", "powerchief", seed=9)
        second = latency_run("sirius", "powerchief", seed=9)
        assert first.latency == second.latency
        assert first.queries_submitted == second.queries_submitted

    def test_different_seeds_differ(self):
        first = latency_run("sirius", "static", seed=1)
        second = latency_run("sirius", "static", seed=2)
        assert first.latency.mean != second.latency.mean

    def test_every_policy_runs(self):
        for policy in LATENCY_POLICIES:
            result = latency_run("sirius", policy, seed=1)
            assert result.policy == policy

    def test_nlp_app_runs(self):
        result = latency_run("nlp", "powerchief", seed=1)
        assert result.app == "nlp"
        assert result.queries_completed > 0

    def test_custom_allocation(self):
        allocation = {
            "ASR": StageAllocation(1, 0),
            "IMM": StageAllocation(1, 0),
            "QA": StageAllocation(2, 6),
        }
        result = latency_run("sirius", "static", seed=1, allocation=allocation)
        qa_counts = [
            sample.stage("QA").instance_count for sample in result.state_samples
        ]
        assert all(count == 2 for count in qa_counts)

    def test_incomplete_allocation_rejected(self):
        with pytest.raises(ConfigurationError):
            latency_run(
                "sirius", "static", allocation={"ASR": StageAllocation(1, 0)}
            )

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigurationError):
            latency_run("nosuch", "static")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            latency_run("sirius", "nosuch")

    def test_no_completions_raises_experiment_error(self):
        with pytest.raises(ExperimentError):
            latency_run("sirius", "static", duration_s=1.0, rate=0.001)

    def test_invalid_allocation_count(self):
        with pytest.raises(ConfigurationError):
            StageAllocation(count=0, level=0)


class TestQosRunner:
    def test_produces_complete_result(self):
        result = qos_run("sirius", "baseline")
        assert result.qos_target_s == 2.0
        assert result.queries_completed > 0
        assert result.average_power_fraction == pytest.approx(1.0)
        assert result.power_saving_fraction == pytest.approx(0.0)
        assert result.qos_samples

    def test_every_policy_runs(self):
        for policy in QOS_POLICIES:
            result = qos_run("sirius", policy)
            assert result.policy == policy

    def test_websearch_setup_runs(self):
        result = qos_run("websearch", "powerchief", rate_qps=6.0, duration_s=60.0)
        assert result.app == "websearch"
        assert result.average_power_fraction < 1.0

    def test_conserving_policies_save_power(self):
        conserving = qos_run("sirius", "powerchief", duration_s=300.0)
        assert conserving.average_power_fraction < 1.0

    def test_reference_power_is_initial_deployment(self):
        result = qos_run("sirius", "baseline", duration_s=60.0)
        # 11 instances at 2.4 GHz.
        from repro.cluster.power import DEFAULT_POWER_MODEL

        assert result.reference_power_watts == pytest.approx(
            11 * DEFAULT_POWER_MODEL.power(2.4)
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            qos_run("sirius", "nosuch", duration_s=10.0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            qos_run("sirius", "baseline", rate_qps=0.0, duration_s=10.0)
