"""Integration tests for the balance threshold's anti-oscillation role.

Section 8.1: "To avoid the oscillation of power reallocation between the
fastest and slowest services, we use a control variable balance
threshold."  These tests measure reallocation churn directly.
"""

from __future__ import annotations

import pytest

from repro.core.actions import FrequencyChangeAction, SkipAction
from repro.core.controller import ControllerConfig
from repro.scenario import ScenarioSpec, run_scenario
from repro.workloads.sirius import sirius_load_levels


def churn(result) -> int:
    """Number of DVFS changes the controller issued over the run."""
    return sum(
        1 for action in result.actions if isinstance(action, FrequencyChangeAction)
    )


def run_with_threshold(threshold: float, seed: int = 3):
    config = ControllerConfig(
        adjust_interval_s=25.0,
        balance_threshold_s=threshold,
        withdraw_interval_s=150.0,
    )
    return run_scenario(
        ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", sirius_load_levels().low_qps),
            600.0,
            seed=seed,
            controller=config,
        )
    )


class TestBalanceThreshold:
    def test_threshold_reduces_churn_at_low_load(self):
        # At low load the system is near-balanced once settled; without a
        # threshold the controller keeps shuffling power every interval.
        free_running = run_with_threshold(0.0)
        gated = run_with_threshold(0.6)
        assert churn(gated) < churn(free_running)

    def test_gated_intervals_are_recorded_as_skips(self):
        gated = run_with_threshold(0.6)
        skips = [a for a in gated.actions if isinstance(a, SkipAction)]
        assert any("balance threshold" in skip.reason for skip in skips)

    def test_threshold_costs_little_latency_at_low_load(self):
        free_running = run_with_threshold(0.0)
        gated = run_with_threshold(0.6)
        assert gated.latency.mean <= free_running.latency.mean * 1.25

    @staticmethod
    def _immediate_reversals(result) -> int:
        """Boosts of an instance in the interval right after it donated.

        Some alternation is legitimate — Figure 11(a) shows power moving
        between QA and ASR as the bottleneck shifts — but the threshold
        should damp the frequency of these reversals.
        """
        reversals = 0
        previous: set[str] = set()
        current: set[str] = set()
        last_time = None
        for action in result.actions:
            if not isinstance(action, FrequencyChangeAction):
                continue
            if action.time != last_time:
                previous = current
                current = set()
                last_time = action.time
            if action.reason == "recycle":
                current.add(action.instance_name)
            elif action.reason == "boost" and action.instance_name in previous:
                reversals += 1
        return reversals

    @pytest.mark.parametrize("seed", [3, 11])
    def test_threshold_damps_immediate_reversals(self, seed):
        free_running = run_with_threshold(0.0, seed=seed)
        gated = run_with_threshold(0.6, seed=seed)
        assert self._immediate_reversals(gated) <= self._immediate_reversals(
            free_running
        )
