"""StackBuilder: seed-equivalence goldens, lifecycle and sharded runs.

The golden values pin the behaviour of the keyword runners the scenario
layer replaced: it must reproduce them bit for bit, because the
content-addressed result cache and every published figure depend on the
runs being byte-identical for a pinned seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.scenario import (
    QosRunResult,
    RunResult,
    ScenarioSpec,
    ShardedRunResult,
    StackBuilder,
    run_scenario,
)
from repro.units import exactly

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "scenarios"

#: Pre-refactor runner output for sirius/powerchief, ConstantLoad(1.5),
#: 180 s, seed=7 — captured on the commit before the scenario layer
#: existed.  Exact equality on purpose: this is a determinism contract.
LATENCY_GOLDEN = {
    "queries_submitted": 270,
    "queries_completed": 267,
    "mean": 2.3966547044476405,
    "p50": 2.148881283990278,
    "p99": 6.1821776108917845,
    "average_power_watts": 13.316664380429811,
    "n_actions": 16,
    "n_samples": 37,
}

#: Pre-refactor QoS runner output for TABLE3_SIRIUS/powerchief,
#: 4.0 qps, 120 s, seed=5.
QOS_GOLDEN = {
    "queries_submitted": 490,
    "queries_completed": 483,
    "mean": 1.2072467627154604,
    "average_power_fraction": 0.6139641298127894,
    "violation_fraction": 0.0,
    "n_actions": 32,
}


@pytest.fixture(scope="module")
def latency_spec():
    return ScenarioSpec.latency(
        "sirius", "powerchief", ("constant", 1.5), 180.0, seed=7
    )


@pytest.fixture(scope="module")
def latency_result(latency_spec):
    return run_scenario(latency_spec)


class TestSeedEquivalence:
    def test_scenario_run_matches_pre_refactor_golden(self, latency_result):
        result = latency_result
        assert result.queries_submitted == LATENCY_GOLDEN["queries_submitted"]
        assert result.queries_completed == LATENCY_GOLDEN["queries_completed"]
        assert result.latency.mean == LATENCY_GOLDEN["mean"]
        assert result.latency.p50 == LATENCY_GOLDEN["p50"]
        assert result.latency.p99 == LATENCY_GOLDEN["p99"]
        assert (
            result.average_power_watts == LATENCY_GOLDEN["average_power_watts"]
        )
        assert len(result.actions) == LATENCY_GOLDEN["n_actions"]
        assert len(result.state_samples) == LATENCY_GOLDEN["n_samples"]

    def test_qos_run_matches_pre_refactor_golden(self):
        spec = ScenarioSpec.qos(
            "sirius",
            "powerchief",
            4.0,
            120.0,
            seed=5,
        )
        result = run_scenario(spec)
        assert isinstance(result, QosRunResult)
        assert result.queries_submitted == QOS_GOLDEN["queries_submitted"]
        assert result.queries_completed == QOS_GOLDEN["queries_completed"]
        assert result.latency.mean == QOS_GOLDEN["mean"]
        assert (
            result.average_power_fraction
            == QOS_GOLDEN["average_power_fraction"]
        )
        assert result.violation_fraction == QOS_GOLDEN["violation_fraction"]
        assert len(result.actions) == QOS_GOLDEN["n_actions"]


class TestLifecycle:
    def test_phases_must_run_in_order(self, latency_spec):
        builder = StackBuilder(latency_spec)
        with pytest.raises(ExperimentError):
            builder.start()
        with pytest.raises(ExperimentError):
            builder.collect()
        builder.build()
        with pytest.raises(ExperimentError):
            builder.build()
        with pytest.raises(ExperimentError):
            builder.run()

    def test_execute_walks_every_phase(self, latency_result):
        assert isinstance(latency_result, RunResult)

    @pytest.mark.parametrize(
        "options",
        [
            {"e2e_window_s": math.nan},
            {"observe": ("slo",), "slo_window_s": math.nan},
        ],
    )
    def test_nan_window_is_refused(self, options):
        # A NaN window never trims, so such a run would have completed
        # with unbounded windows; the spec refuses it before any build.
        with pytest.raises(ConfigurationError, match="finite"):
            ScenarioSpec.qos("sirius", "pegasus", 1.0, 120.0, seed=3, **options)


class TestShardedFromJson:
    @pytest.fixture(scope="class")
    def sharded_result(self):
        spec = ScenarioSpec.from_json(
            (EXAMPLES / "sharded_chaos.json").read_text(encoding="utf-8")
        )
        return spec, run_scenario(spec)

    def test_example_spec_runs_end_to_end(self, sharded_result):
        spec, result = sharded_result
        assert isinstance(result, ShardedRunResult)
        assert result.n_shards == 2
        assert result.splitter == "least-in-flight"
        assert result.queries_completed == sum(
            shard.queries_completed for shard in result.shards
        )
        assert result.queries_completed > 0
        assert result.latency is not None and result.latency.mean > 0.0
        assert result.average_power_watts > 0.0

    def test_chaos_actually_fired(self, sharded_result):
        spec, _ = sharded_result
        plan = spec.chaos_plan()
        assert plan is not None and plan.specs

    def test_sharded_run_is_deterministic(self, sharded_result):
        spec, first = sharded_result
        second = run_scenario(ScenarioSpec.from_json(spec.to_json()))
        assert second.queries_completed == first.queries_completed
        assert second.latency.mean == first.latency.mean
        assert second.average_power_watts == first.average_power_watts
        assert [s.queries_completed for s in second.shards] == [
            s.queries_completed for s in first.shards
        ]

    def test_example_specs_validate(self):
        for path in sorted(EXAMPLES.glob("*.json")):
            spec = ScenarioSpec.from_json(path.read_text(encoding="utf-8"))
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert spec.to_dict()["kind"] == payload["kind"]


class TestGuardedScenario:
    def test_guard_block_builds_a_supervised_controller(self):
        from repro.guard import GuardConfig
        from repro.guard.supervisor import SupervisedController
        from repro.scenario.builder import StackBuilder

        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 1.5),
            60.0,
            seed=7,
            guard=GuardConfig(demote_after=1),
        )
        builder = StackBuilder(spec)
        builder.build()
        assert isinstance(builder.controller, SupervisedController)
        assert builder.controller.modes == ("powerchief", "conserve", "safe")

    def test_guarded_run_matches_the_unguarded_golden(self):
        from repro.guard import GuardConfig

        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 1.5),
            180.0,
            seed=7,
            guard=GuardConfig(),
        )
        result = run_scenario(spec)
        # The byte-identity contract through the scenario path: a
        # violation-free supervised run reproduces the committed golden.
        assert result.queries_submitted == LATENCY_GOLDEN["queries_submitted"]
        assert result.queries_completed == LATENCY_GOLDEN["queries_completed"]
        assert exactly(result.latency.mean, LATENCY_GOLDEN["mean"])
        assert exactly(
            result.average_power_watts, LATENCY_GOLDEN["average_power_watts"]
        )
        assert len(result.actions) == LATENCY_GOLDEN["n_actions"]

    def test_guarded_shards_are_supervised_and_match_unguarded_twin(self):
        from repro.experiments.export import scenario_payload
        from repro.guard import GuardConfig
        from repro.guard.supervisor import SupervisedController

        kwargs = dict(seed=11, shards=2)
        trace = ("constant", 3.0)
        guarded = ScenarioSpec.latency(
            "sirius", "powerchief", trace, 120.0, guard=GuardConfig(), **kwargs
        )
        builder = StackBuilder(guarded)
        result = builder.execute()
        controllers = [stack.controller for stack in builder._stacks]
        assert len(controllers) == 2
        assert all(isinstance(c, SupervisedController) for c in controllers)
        assert controllers[0] is not controllers[1]
        assert [len(c.violations) for c in controllers] == [0, 0]
        twin = run_scenario(
            ScenarioSpec.latency("sirius", "powerchief", trace, 120.0, **kwargs)
        )
        assert json.dumps(scenario_payload(result), sort_keys=True) == json.dumps(
            scenario_payload(twin), sort_keys=True
        )

    def test_guarded_scenario_attaches_slo_to_the_storm_monitor(self):
        from repro.guard import GuardConfig
        from repro.scenario.builder import StackBuilder

        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 1.5),
            60.0,
            seed=7,
            guard=GuardConfig(),
            observe=("metrics", "slo"),
            slo_target_s=2.0,
        )
        builder = StackBuilder(spec)
        builder.build().arm()
        storm = builder.controller._storm
        assert storm.tracker is not None
