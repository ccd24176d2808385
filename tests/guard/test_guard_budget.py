"""Live power-budget governance: clamp, enforce, audit.

:func:`apply_budget_change` is the one sanctioned path a runtime cap
move takes (the ``reprod`` control plane calls it); these tests pin its
clamp-to-floor behaviour, the supervisor-order step-down enforcement,
and the audit/metrics trail.  :func:`retarget_slo` rides along.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster.dvfs import DvfsActuator
from repro.core.baselines import StaticController
from repro.errors import ClusterError
from repro.guard import (
    apply_budget_change,
    feasible_floor_watts,
    retarget_slo,
)
from repro.obs import Observability
from repro.obs.audit import AuditLog, BudgetChangeEntry, SloRetargetEntry
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloTracker
from repro.service.command_center import CommandCenter
from repro.units import EPSILON_WATTS, exactly

from tests.conftest import make_two_stage_app


@pytest.fixture
def controller(sim, two_stage_app, budget):
    return StaticController(
        sim, two_stage_app, CommandCenter(sim, two_stage_app), budget, DvfsActuator(sim)
    )


def change(controller, watts, **kwargs):
    return apply_budget_change(
        budget=controller.budget,
        application=controller.application,
        controller=controller,
        requested_watts=watts,
        now=controller.sim.now,
        **kwargs,
    )


class TestFeasibleFloor:
    def test_floor_is_draw_minus_dvfs_headroom(self, controller):
        budget = controller.budget
        app = controller.application
        floor = feasible_floor_watts(budget, app)
        assert 0.0 < floor < budget.draw()
        # Walk every instance to the ladder minimum: the draw IS the floor.
        for instance in app.running_instances():
            controller.set_instance_level(
                instance, instance.core.ladder.min_level, "test"
            )
        assert feasible_floor_watts(budget, app) == pytest.approx(
            budget.draw()
        )

    def test_floor_is_invariant_under_dvfs_moves(self, controller):
        budget = controller.budget
        app = controller.application
        before = feasible_floor_watts(budget, app)
        draw_before = budget.draw()
        victim = next(iter(app.running_instances()))
        controller.set_instance_level(victim, victim.level - 1, "test")
        # Stepping down converts headroom into realised reduction: the
        # draw falls, the reducible margin falls by the same amount.
        assert budget.draw() < draw_before
        assert feasible_floor_watts(budget, app) == pytest.approx(before)


class TestApplyBudgetChange:
    def test_raise_never_touches_frequencies(self, controller):
        levels = {
            i.name: i.level
            for i in controller.application.running_instances()
        }
        result = change(controller, 40.0)
        assert exactly(result.applied_watts, 40.0)
        assert result.clamped is False
        assert result.step_downs == 0
        assert exactly(controller.budget.budget_watts, 40.0)
        assert {
            i.name: i.level
            for i in controller.application.running_instances()
        } == levels

    def test_cut_steps_hottest_instances_down_until_it_fits(self, controller):
        target = controller.budget.draw() * 0.6
        result = change(controller, target)
        assert result.step_downs > 0
        assert exactly(controller.budget.budget_watts, target)
        assert controller.budget.draw() <= target + EPSILON_WATTS
        # Enforcement went through the controller: logged actions.
        assert len(controller.actions) == result.step_downs
        assert all(a.reason == "budget-change" for a in controller.actions)

    def test_infeasible_request_clamps_to_the_floor(self, controller):
        floor = feasible_floor_watts(
            controller.budget, controller.application
        )
        result = change(controller, 0.001 + 0.0)
        assert result.clamped is True
        assert result.applied_watts == pytest.approx(floor, abs=1e-9)
        assert result.floor_watts == pytest.approx(floor, abs=1e-9)
        assert controller.budget.draw() <= result.applied_watts + EPSILON_WATTS
        # Every instance was walked to the ladder minimum.
        for instance in controller.application.running_instances():
            assert instance.level == instance.core.ladder.min_level

    def test_non_positive_request_refused(self, controller):
        cap = controller.budget.budget_watts
        for watts in (0.0, -5.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ClusterError, match="> 0 W"):
                change(controller, watts)
        assert exactly(controller.budget.budget_watts, cap)

    def test_change_is_audited_and_counted(self, sim, machine, budget):
        audit = AuditLog()
        metrics = MetricsRegistry()
        app = make_two_stage_app(
            sim, machine, Observability(audit=audit, metrics=metrics)
        )
        controller = StaticController(
            sim, app, CommandCenter(sim, app), budget, DvfsActuator(sim)
        )
        result = change(controller, 8.0, source="smoke")
        entries = [
            e for e in audit.entries if isinstance(e, BudgetChangeEntry)
        ]
        assert len(entries) == 1
        entry = entries[0]
        assert entry.kind == "budget-change"
        assert entry.controller == controller.name
        assert exactly(entry.applied_watts, result.applied_watts)
        assert entry.step_downs == result.step_downs
        assert entry.source == "smoke"
        counter = metrics.get("repro_budget_changes_total")
        assert counter is not None
        assert exactly(counter.value(source="smoke"), 1.0)

    def test_to_dict_round_trips_the_record(self, controller):
        result = change(controller, 10.0)
        payload = result.to_dict()
        assert exactly(payload["requested_watts"], 10.0)
        assert exactly(payload["previous_watts"], 13.56)
        assert set(payload) == {
            "time",
            "requested_watts",
            "applied_watts",
            "previous_watts",
            "floor_watts",
            "clamped",
            "step_downs",
            "source",
        }


class TestRetargetSlo:
    def test_retarget_moves_the_live_target(self):
        slo = SloTracker(target_s=3.0)
        audit = AuditLog()
        metrics = MetricsRegistry()
        result = retarget_slo(
            obs=Observability(slo=slo, audit=audit, metrics=metrics),
            target_s=1.5,
            now=42.0,
        )
        assert exactly(slo.target_s, 1.5)
        assert exactly(result.previous_target_s, 3.0)
        entries = [
            e for e in audit.entries if isinstance(e, SloRetargetEntry)
        ]
        assert len(entries) == 1
        assert entries[0].kind == "slo-retarget"
        counter = metrics.get("repro_slo_retargets_total")
        assert counter is not None
        assert exactly(counter.value(source="ctl"), 1.0)

    def test_non_positive_target_refused(self):
        slo = SloTracker(target_s=3.0)
        for target in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ClusterError, match="> 0 s"):
                retarget_slo(obs=Observability(slo=slo), target_s=target, now=0.0)
        assert exactly(slo.target_s, 3.0)
