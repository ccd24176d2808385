"""The tentpole acceptance gates for controller supervision.

Three pins: (1) a violation-free supervised run is byte-identical to its
unsupervised twin (supervision is free when nothing is wrong); (2) under
every builtin fault plan, across seeds, a supervised PowerChief run never
ends a control tick with allocated power above the cap — the per-tick
``budget.assert_within()`` hard-raises on breach, so completing the run
*is* the invariant proof, and the goodput ledger must still balance;
(3) the ladder engages and re-promotes deterministically per seed.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.export import scenario_payload
from repro.faults import chaos_spec
from repro.faults.plan import named_plans
from repro.guard import GuardConfig
from repro.scenario import ScenarioSpec, StackBuilder, run_scenario

DURATION_S = 60.0
RATE_QPS = 3.0

#: The tuned demote-then-recover arc (matches the CI smoke-guard job).
RECOVERY_GUARD = GuardConfig(
    ladder="conserve,safe",
    demote_after=1,
    probation_s=60.0,
    burn_threshold=2.0,
    storm_ticks=2,
)


def supervised_chaos(
    plan_name, seed, guard=None, rate_qps=RATE_QPS, duration_s=DURATION_S, **kwargs
):
    """One supervised chaos run's goodput report."""
    builder = StackBuilder(
        chaos_spec(
            "sirius",
            "powerchief",
            ("constant", rate_qps),
            duration_s,
            plan_name,
            seed=seed,
            guard=guard if guard is not None else GuardConfig(),
            **kwargs,
        )
    )
    result = builder.execute()
    return builder.chaos.report(result)


class TestByteIdenticalGolden:
    def test_violation_free_supervised_run_matches_unsupervised_twin(self):
        kwargs = dict(duration_s=120.0, seed=3)
        trace = ("constant", 2.0)
        plain = run_scenario(
            ScenarioSpec.latency("sirius", "powerchief", trace, **kwargs)
        )
        guarded = run_scenario(
            ScenarioSpec.latency(
                "sirius", "powerchief", trace, guard=GuardConfig(), **kwargs
            )
        )
        plain_payload = json.dumps(scenario_payload(plain), sort_keys=True)
        guarded_payload = json.dumps(scenario_payload(guarded), sort_keys=True)
        assert guarded_payload == plain_payload

    def test_healthy_supervised_run_reports_zero_guard_activity(self):
        report = supervised_chaos("telemetry-dark", seed=3)
        guard = report.guard
        assert guard is not None
        # No SLO tracker armed and no faults that breach invariants:
        # the guard watched the whole run and had nothing to do.
        assert guard["violations_total"] == 0
        assert guard["transitions"] == []
        assert guard["final_mode"] == "powerchief"


class TestInvariantSweep:
    @pytest.mark.parametrize("plan_name", named_plans())
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_supervised_run_never_ends_a_tick_over_cap(self, plan_name, seed):
        # budget.assert_within() runs after every supervised tick and
        # raises on breach — a completed run is the invariant holding.
        report = supervised_chaos(plan_name, seed=seed)
        assert report.accounted, f"plan {plan_name} seed {seed} lost queries"
        guard = report.guard
        assert guard is not None
        assert guard["modes"] == ["powerchief", "conserve", "safe"]


class TestLadderDeterminism:
    def _recovery_run(self, seed):
        return supervised_chaos(
            "telemetry-dark",
            seed,
            guard=RECOVERY_GUARD,
            rate_qps=3.0,
            duration_s=600.0,
            slo_target_s=20.0,
        )

    def test_engages_and_recovers_identically_per_seed(self):
        first = self._recovery_run(seed=3)
        second = self._recovery_run(seed=3)
        guard_one = first.guard
        guard_two = second.guard
        assert guard_one is not None and guard_two is not None
        assert guard_one["transitions"] == guard_two["transitions"]
        assert guard_one["safe_mode_engaged"]
        assert guard_one["recovered"]
        modes_walked = [t["to_mode"] for t in guard_one["transitions"]]
        assert modes_walked == ["conserve", "safe", "conserve", "powerchief"]
        assert first.accounted
