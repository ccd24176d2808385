"""SupervisedController: ladder walking, hysteresis, cap enforcement."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cluster.budget import PowerBudget
from repro.cluster.dvfs import DvfsActuator
from repro.cluster.frequency import HASWELL_LADDER
from repro.core.baselines import StaticController
from repro.guard import GuardConfig, SupervisedController
from repro.obs import Observability
from repro.obs.audit import AuditLog, GuardTransitionEntry, GuardViolationEntry
from repro.obs.metrics import MetricsRegistry
from repro.service.command_center import CommandCenter
from repro.units import EPSILON_WATTS

from tests.conftest import make_two_stage_app


STORMY = GuardConfig(
    ladder="conserve,safe",
    demote_after=2,
    violation_window_s=50.0,
    probation_s=30.0,
    burn_threshold=2.0,
    storm_ticks=1,
)


def build_supervisor(sim, app, machine, budget_watts=13.56, guard=STORMY):
    budget = PowerBudget(machine, budget_watts)
    supervisor = SupervisedController(
        sim,
        app,
        CommandCenter(sim, app),
        budget,
        DvfsActuator(sim),
        policy=StaticController,
        guard=guard,
    )
    return supervisor, budget


def stormy_app(sim, machine, burn_box, **pillars):
    """The two-stage app with an SLO tracker burning at ``burn_box``'s
    rate (plus any other pillars) in its observability bundle."""
    tracker = SimpleNamespace(burn_rate=lambda now: burn_box["burn"])
    return make_two_stage_app(sim, machine, Observability(slo=tracker, **pillars))


class TestLadderWalk:
    def test_demotes_one_rung_per_window_breach(self, sim, machine):
        burn_box = {"burn": 10.0}
        supervisor, _ = build_supervisor(
            sim, stormy_app(sim, machine, burn_box), machine
        )
        assert supervisor.mode == "static"
        supervisor.adjust(10.0)
        assert supervisor.mode == "static"  # one violation, demote_after=2
        supervisor.adjust(20.0)
        assert supervisor.mode == "conserve"
        # The window was cleared on demotion: the next breach needs two
        # fresh violations again (hysteresis, not instant freefall).
        supervisor.adjust(30.0)
        assert supervisor.mode == "conserve"
        supervisor.adjust(40.0)
        assert supervisor.mode == "safe"

    def test_stays_at_the_bottom_rung(self, sim, machine):
        burn_box = {"burn": 10.0}
        supervisor, _ = build_supervisor(
            sim, stormy_app(sim, machine, burn_box), machine
        )
        for tick in range(1, 9):
            supervisor.adjust(tick * 10.0)
        assert supervisor.mode == "safe"
        assert [t.to_mode for t in supervisor.transitions] == ["conserve", "safe"]

    def test_promotes_one_rung_per_probation_window(self, sim, machine):
        burn_box = {"burn": 10.0}
        supervisor, _ = build_supervisor(
            sim, stormy_app(sim, machine, burn_box), machine
        )
        for tick in (10.0, 20.0, 30.0, 40.0):
            supervisor.adjust(tick)
        assert supervisor.mode == "safe"
        burn_box["burn"] = 0.0
        supervisor.adjust(50.0)
        assert supervisor.mode == "safe"  # 50 - 40 < 30s probation
        supervisor.adjust(71.0)
        assert supervisor.mode == "conserve"  # 71 - 40 >= 30s
        supervisor.adjust(80.0)
        assert supervisor.mode == "conserve"  # probation restarts per rung
        supervisor.adjust(102.0)
        assert supervisor.mode == "static"
        summary = supervisor.guard_summary()
        assert summary.safe_mode_engaged
        assert summary.recovered

    def test_fresh_violation_restarts_probation(self, sim, machine):
        burn_box = {"burn": 10.0}
        supervisor, _ = build_supervisor(
            sim, stormy_app(sim, machine, burn_box), machine
        )
        supervisor.adjust(10.0)
        supervisor.adjust(20.0)
        assert supervisor.mode == "conserve"
        burn_box["burn"] = 0.0
        supervisor.adjust(40.0)
        burn_box["burn"] = 10.0
        supervisor.adjust(45.0)  # violation at 45 restarts the quiet clock
        burn_box["burn"] = 0.0
        supervisor.adjust(60.0)
        assert supervisor.mode == "conserve"  # 60 - 45 < 30s
        supervisor.adjust(76.0)
        assert supervisor.mode == "static"  # 76 - 45 >= 30s

    def test_transitions_are_audited_and_counted(self, sim, machine):
        audit = AuditLog()
        registry = MetricsRegistry()
        burn_box = {"burn": 10.0}
        app = stormy_app(sim, machine, burn_box, audit=audit, metrics=registry)
        supervisor, _ = build_supervisor(sim, app, machine)
        supervisor.adjust(10.0)
        supervisor.adjust(20.0)
        violations = audit.of_kind(GuardViolationEntry)
        transitions = audit.of_kind(GuardTransitionEntry)
        assert len(violations) == 2
        assert violations[0].monitor == "slo-storm"
        assert len(transitions) == 1
        assert (transitions[0].from_mode, transitions[0].to_mode) == (
            "static",
            "conserve",
        )
        assert (
            int(
                registry.counter("repro_guard_violations_total").value(
                    monitor="slo-storm"
                )
            )
            == 2
        )
        assert (
            int(
                registry.counter("repro_guard_transitions_total").value(
                    from_mode="static", to_mode="conserve"
                )
            )
            == 1
        )


class TestCapEnforcement:
    def test_breach_is_stepped_down_within_the_tick(self, sim, machine):
        registry = MetricsRegistry()
        app = make_two_stage_app(sim, machine, Observability(metrics=registry))
        draw = float(machine.total_power())
        # A cap below current draw: already in breach before the tick.
        supervisor, budget = build_supervisor(
            sim, app, machine, budget_watts=draw * 0.8
        )
        supervisor.adjust(10.0)
        assert budget.draw() <= budget.budget_watts + EPSILON_WATTS
        assert supervisor.enforced_step_downs > 0
        assert any(v.monitor == "budget-cap" for v in supervisor.violations)
        enforced = [
            action
            for action in supervisor.actions
            if getattr(action, "reason", None) == "guard-enforce"
        ]
        assert len(enforced) == supervisor.enforced_step_downs
        counter = registry.counter("repro_guard_enforced_stepdowns_total")
        assert counter.value(controller=supervisor.name) == len(enforced)

    def test_enforcement_stops_at_the_ladder_floor(self, sim, machine):
        from repro.service.application import Application

        from tests.conftest import make_profile

        registry = MetricsRegistry()
        app = Application(
            "floor", sim, machine, observability=Observability(metrics=registry)
        )
        stage = app.add_stage(make_profile("A", mean=0.2))
        stage.launch_instance(int(HASWELL_LADDER.min_level))
        floor_draw = float(machine.total_power())
        supervisor, budget = build_supervisor(
            sim, app, machine, budget_watts=floor_draw * 0.5
        )
        supervisor.adjust(10.0)  # nothing above the floor: cannot shed
        assert budget.draw() > budget.budget_watts
        assert supervisor.enforced_step_downs == 0
        # No step-down, no series: the exposition is what it was.
        assert registry.get("repro_guard_enforced_stepdowns_total") is None


class TestAggregation:
    def test_degraded_ticks_aggregate_across_rungs(
        self, sim, two_stage_app, machine
    ):
        supervisor, _ = build_supervisor(sim, two_stage_app, machine)
        assert supervisor.tally.degraded_ticks == 0
        supervisor._rungs[0].tally.degraded_ticks += 3
        assert supervisor.tally.degraded_ticks == 3
        supervisor.tally.degraded_ticks += 1  # a base-class write folds in too
        assert supervisor.tally.degraded_ticks == 4
        assert all(rung.tally is supervisor.tally for rung in supervisor._rungs)

    def test_safety_clamps_include_the_actuator(self, sim, two_stage_app, machine):
        draw = float(machine.total_power())
        supervisor, _ = build_supervisor(
            sim, two_stage_app, machine, budget_watts=draw + 0.001
        )
        instance = two_stage_app.running_instances()[0]
        # The wrapped policy asks for an unfundable boost: clamped.
        supervisor.actuator.set_level(instance.core, instance.level + 2)
        assert supervisor.actuator.clamped_actions == 1
        assert supervisor.tally.safety_clamps == 1

    def test_summary_to_dict_shape(self, sim, two_stage_app, machine):
        supervisor, _ = build_supervisor(sim, two_stage_app, machine)
        payload = supervisor.guard_summary().to_dict()
        assert payload["modes"] == ["static", "conserve", "safe"]
        assert payload["final_mode"] == "static"
        assert payload["violations_total"] == 0
        assert payload["safe_mode_engaged"] is False
        assert payload["recovered"] is True
        assert set(payload["mode_seconds"]) == {"static", "conserve", "safe"}

    def test_single_rung_ladder(self, sim, machine):
        burn_box = {"burn": 10.0}
        supervisor, _ = build_supervisor(
            sim,
            stormy_app(sim, machine, burn_box),
            machine,
            guard=GuardConfig(
                ladder="safe",
                demote_after=1,
                probation_s=30.0,
                storm_ticks=1,
            ),
        )
        supervisor.adjust(10.0)
        assert supervisor.mode == "safe"
        burn_box["burn"] = 0.0
        supervisor.adjust(41.0)
        assert supervisor.mode == "static"


class TestRungProcessesNeverStart:
    def test_only_the_supervisor_ticks(self, sim, two_stage_app, machine):
        supervisor, _ = build_supervisor(sim, two_stage_app, machine)
        supervisor.start()
        sim.run(until=120.0)
        supervisor.stop()
        assert supervisor.ticks > 0
        assert all(rung.ticks == 0 for rung in supervisor._rungs)


class TestGuardConfigDefaultsInSupervisor:
    def test_guard_defaults_when_omitted(self, sim, two_stage_app, machine):
        budget = PowerBudget(machine, 13.56)
        supervisor = SupervisedController(
            sim,
            two_stage_app,
            CommandCenter(sim, two_stage_app),
            budget,
            DvfsActuator(sim),
            policy=StaticController,
        )
        assert supervisor.guard == GuardConfig()
        assert supervisor.modes == ("static", "conserve", "safe")
