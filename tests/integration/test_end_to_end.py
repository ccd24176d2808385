"""Integration tests: full runs exercising the paper's headline shapes.

These are the qualitative claims the reproduction must uphold; exact
factors vary with the simulation seed and are pinned loosely.  The last
test runs every script in ``examples/`` end to end.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.actions import InstanceLaunchAction, InstanceWithdrawAction
from repro.scenario import ScenarioSpec, run_scenario
from repro.workloads.sirius import sirius_load_levels
from repro.workloads.traces import fig11_trace


DURATION = 500.0
SEED = 3

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def levels():
    return sirius_load_levels()


def run(policy, rate):
    return run_scenario(
        ScenarioSpec.latency("sirius", policy, ("constant", rate), DURATION, seed=SEED)
    )


def qos_runs(app, rate_qps, duration_s):
    return {
        policy: run_scenario(
            ScenarioSpec.qos(app, policy, rate_qps, duration_s, seed=SEED)
        )
        for policy in ("baseline", "pegasus", "powerchief")
    }


class TestHighLoadShape:
    """Figure 10(c): instance boosting and PowerChief dominate."""

    @pytest.fixture(scope="class")
    def results(self, levels):
        rate = levels.high_qps
        return {
            policy: run(policy, rate)
            for policy in ("static", "freq-boost", "inst-boost", "powerchief")
        }

    def test_every_policy_beats_the_baseline(self, results):
        baseline = results["static"].latency.mean
        for policy in ("freq-boost", "inst-boost", "powerchief"):
            assert results[policy].latency.mean < baseline

    def test_instance_boosting_beats_frequency_boosting(self, results):
        assert (
            results["inst-boost"].latency.mean
            < results["freq-boost"].latency.mean
        )

    def test_powerchief_improvement_is_order_of_magnitude(self, results):
        improvement = (
            results["static"].latency.mean / results["powerchief"].latency.mean
        )
        assert improvement > 8.0

    def test_powerchief_tracks_the_best_technique(self, results):
        best = min(
            results["freq-boost"].latency.mean,
            results["inst-boost"].latency.mean,
        )
        assert results["powerchief"].latency.mean <= best * 1.5

    def test_tail_latency_also_improves(self, results):
        assert results["powerchief"].latency.p99 < results["static"].latency.p99 / 4

    def test_all_policies_respect_the_budget(self, results):
        for result in results.values():
            assert result.average_power_watts <= 13.56 + 1e-6


class TestLowLoadShape:
    """Figure 4(a): frequency boosting is the right tool at low load."""

    def test_frequency_boosting_tail_beats_instance_boosting(self, levels):
        freq = run("freq-boost", levels.low_qps)
        inst = run("inst-boost", levels.low_qps)
        assert freq.latency.p99 <= inst.latency.p99 * 1.1

    def test_powerchief_matches_frequency_boosting(self, levels):
        freq = run("freq-boost", levels.low_qps)
        chief = run("powerchief", levels.low_qps)
        assert chief.latency.mean <= freq.latency.mean * 1.1


class TestFig11Dynamics:
    """Figure 11's characteristic runtime behaviours."""

    @pytest.fixture(scope="class")
    def trace_runs(self, levels):
        trace = fig11_trace(levels.high_qps)
        return {
            policy: run_scenario(
                ScenarioSpec.latency("sirius", policy, trace, 900.0, seed=SEED)
            )
            for policy in ("freq-boost", "inst-boost", "powerchief")
        }

    def test_freq_boosting_never_launches_instances(self, trace_runs):
        actions = trace_runs["freq-boost"].actions
        assert not any(isinstance(a, InstanceLaunchAction) for a in actions)

    def test_inst_boosting_accumulates_clones(self, trace_runs):
        actions = trace_runs["inst-boost"].actions
        launches = [a for a in actions if isinstance(a, InstanceLaunchAction)]
        assert len(launches) >= 2

    def test_inst_boosting_ends_locked_at_the_floor(self, trace_runs):
        final = trace_runs["inst-boost"].state_samples[-1]
        frequencies = [
            ghz for stage in final.stages for _, ghz in stage.frequencies
        ]
        # The Figure-11(b) lock-in: almost every core at 1.2 GHz.
        at_floor = sum(1 for ghz in frequencies if ghz == pytest.approx(1.2))
        assert at_floor >= len(frequencies) - 1

    def test_powerchief_uses_both_boosts_and_withdraw(self, trace_runs):
        actions = trace_runs["powerchief"].actions
        assert any(isinstance(a, InstanceLaunchAction) for a in actions)
        assert any(isinstance(a, InstanceWithdrawAction) for a in actions)

    def test_powerchief_beats_single_technique_policies(self, trace_runs):
        chief = trace_runs["powerchief"].latency.mean
        assert chief <= trace_runs["freq-boost"].latency.mean
        assert chief <= trace_runs["inst-boost"].latency.mean * 1.25


class TestQosShape:
    """Figures 13/14: PowerChief saves more power than Pegasus, QoS held."""

    @pytest.fixture(scope="class")
    def sirius_runs(self):
        return qos_runs("sirius", 7.0, 600.0)

    def test_powerchief_saves_more_than_pegasus(self, sirius_runs):
        assert (
            sirius_runs["powerchief"].average_power_fraction
            < sirius_runs["pegasus"].average_power_fraction
        )

    def test_powerchief_saving_is_substantial(self, sirius_runs):
        assert sirius_runs["powerchief"].power_saving_fraction > 0.15

    def test_baseline_fraction_is_one(self, sirius_runs):
        assert sirius_runs["baseline"].average_power_fraction == pytest.approx(1.0)

    def test_qos_mostly_met(self, sirius_runs):
        for policy in ("pegasus", "powerchief"):
            assert sirius_runs[policy].violation_fraction < 0.15

    def test_websearch_ordering_matches_figure14(self):
        runs = qos_runs("websearch", 8.0, 200.0)
        assert (
            runs["powerchief"].average_power_fraction
            < runs["pegasus"].average_power_fraction
            <= runs["baseline"].average_power_fraction
        )
        assert runs["powerchief"].power_saving_fraction > 0.25


@pytest.mark.parametrize(
    "example", sorted((ROOT / "examples").glob("*.py")), ids=lambda path: path.stem
)
def test_example_runs(example):
    """Every example script runs to completion and prints its report."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(example)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        cwd=ROOT,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
