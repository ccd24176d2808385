"""Unit tests for the runtime controllers (PowerChief and baselines)."""

from __future__ import annotations

import pytest

from repro.cluster.budget import PowerBudget
from repro.cluster.dvfs import DvfsActuator
from repro.cluster.frequency import HASWELL_LADDER
from repro.core.actions import (
    FrequencyChangeAction,
    InstanceLaunchAction,
    InstanceWithdrawAction,
    SkipAction,
)
from repro.core.baselines import (
    FreqBoostController,
    InstBoostController,
    StaticController,
)
from repro.core.controller import ControllerConfig, PowerChiefController
from repro.errors import ConfigurationError
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.service.command_center import CommandCenter
from repro.service.instance import Job
from repro.service.query import Query

from tests.conftest import make_two_stage_app, submit_two_stage_query


LEVEL_1_2 = HASWELL_LADDER.min_level
LEVEL_1_8 = HASWELL_LADDER.level_of(1.8)

FAST_CONFIG = ControllerConfig(
    adjust_interval_s=5.0,
    balance_threshold_s=0.25,
    withdraw_interval_s=20.0,
)


def make_controller(cls, sim, app, machine, budget_watts=13.56, config=FAST_CONFIG):
    command_center = CommandCenter(sim, app, window_s=30.0)
    budget = PowerBudget(machine, budget_watts)
    controller = cls(sim, app, command_center, budget, DvfsActuator(sim), config)
    return controller, command_center, budget


def flood_stage_b(app, count=40, work=1.0):
    """Pile queries directly onto stage B's first instance."""
    instance = app.stage("B").instances[0]
    for qid in range(count):
        instance.enqueue(
            Job(Query(30_000 + qid, {"B": work}), work=work, on_done=lambda q: None)
        )


class TestControllerConfig:
    def test_defaults_match_table2_roles(self):
        config = ControllerConfig()
        assert config.adjust_interval_s == 25.0
        assert config.withdraw_interval_s == 150.0
        assert config.enable_withdraw

    def test_invalid_intervals_rejected(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(adjust_interval_s=0.0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(balance_threshold_s=-1.0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(withdraw_interval_s=0.0)


class TestStaticController:
    def test_never_changes_anything(self, sim, two_stage_app, machine):
        controller, _, _ = make_controller(
            StaticController, sim, two_stage_app, machine
        )
        levels_before = [inst.level for inst in two_stage_app.all_instances()]
        controller.start()
        for qid in range(20):
            submit_two_stage_query(two_stage_app, qid)
        sim.run(until=60.0)
        assert [inst.level for inst in two_stage_app.all_instances()] == levels_before
        assert all(isinstance(action, SkipAction) for action in controller.actions)


class TestSafetyClamp:
    def test_retuning_a_crashed_instance_is_refused_and_counted(
        self, sim, machine
    ):
        registry = MetricsRegistry()
        app = make_two_stage_app(sim, machine, Observability(metrics=registry))
        controller, _, _ = make_controller(StaticController, sim, app, machine)
        stage = app.stage("B")
        victim = stage.instances[0]
        stage.crash_instance(victim)
        controller.set_instance_level(victim, LEVEL_1_2, "test")
        assert controller.tally.safety_clamps == 1
        assert registry.counter("repro_controller_safety_clamps_total").value(
            controller=controller.name
        ) == 1
        (skip,) = controller.actions
        assert isinstance(skip, SkipAction)
        assert skip.reason.startswith("safety clamp: retune (test)")


def make_single_instance_app(sim, machine):
    """A one-stage, one-instance application (no peer to spread against)."""
    from repro.service.application import Application

    from tests.conftest import make_profile

    app = Application("solo-app", sim, machine)
    stage = app.add_stage(make_profile("S", mean=0.2))
    stage.launch_instance(HASWELL_LADDER.level_of(1.8))
    return app


class TestPowerChiefController:
    def test_skips_when_balanced(self, sim, two_stage_app, machine):
        # With no load, the profile-prior metrics of A (0.13s) and B
        # (0.67s) differ by ~0.53s: a threshold above that must gate the
        # interval.
        config = ControllerConfig(
            adjust_interval_s=5.0,
            balance_threshold_s=1.0,
            withdraw_interval_s=1000.0,
        )
        controller, _, _ = make_controller(
            PowerChiefController, sim, two_stage_app, machine, config=config
        )
        controller.start()
        sim.run(until=6.0)
        assert controller.ticks == 1
        assert isinstance(controller.actions[-1], SkipAction)

    def test_single_instance_below_threshold_skips(self, sim, machine):
        # The balance gate must also cover a lone instance: with no load
        # its profile-prior metric (~0.13s) is below the threshold, so
        # every interval is skipped instead of firing a boost attempt.
        app = make_single_instance_app(sim, machine)
        config = ControllerConfig(
            adjust_interval_s=5.0,
            balance_threshold_s=1.0,
            withdraw_interval_s=1000.0,
        )
        controller, _, _ = make_controller(
            PowerChiefController, sim, app, machine, config=config
        )
        controller.start()
        sim.run(until=26.0)
        assert controller.ticks == 5
        assert controller.actions
        assert all(isinstance(action, SkipAction) for action in controller.actions)
        assert all(
            "balance threshold" in action.reason for action in controller.actions
        )
        assert not controller.decisions

    def test_single_instance_above_threshold_still_boosts(self, sim, machine):
        # The gate must not castrate a genuinely overloaded lone instance.
        # Queries go through the application so completions feed the
        # command center and the Equation-1 metric reflects the backlog.
        app = make_single_instance_app(sim, machine)
        controller, _, _ = make_controller(
            PowerChiefController, sim, app, machine
        )
        controller.start()
        for qid in range(80):
            app.submit(Query(40_000 + qid, {"S": 1.0}))
        sim.run(until=30.0)
        assert controller.decisions

    def test_withdraw_cadence_does_not_drift(self, sim, two_stage_app, machine):
        # Adjust every 4s, withdraw every 10s: ticks land at 4, 8, 12, ...
        # so no tick coincides with a withdraw multiple.  Snapping the
        # checkpoint to the tick time used to stretch the cadence to 12s
        # (10 passes in 120s); anchored bookkeeping keeps the long-run
        # average at exactly the configured interval.
        config = ControllerConfig(
            adjust_interval_s=4.0,
            balance_threshold_s=0.25,
            withdraw_interval_s=10.0,
        )
        controller, _, _ = make_controller(
            PowerChiefController, sim, two_stage_app, machine, config=config
        )
        controller.start()
        sim.run(until=121.0)
        assert controller.withdraw_passes == int(120.0 / 10.0)

    def test_boosts_bottleneck_under_load(self, sim, two_stage_app, machine):
        controller, _, budget = make_controller(
            PowerChiefController, sim, two_stage_app, machine
        )
        controller.start()
        flood_stage_b(two_stage_app)
        sim.run(until=30.0)
        boosts = [
            action
            for action in controller.actions
            if isinstance(action, (FrequencyChangeAction, InstanceLaunchAction))
        ]
        assert boosts, "expected at least one boosting action"
        budget.assert_within()

    def test_deep_queue_triggers_instance_boosting(self, sim, two_stage_app, machine):
        controller, _, _ = make_controller(
            PowerChiefController, sim, two_stage_app, machine
        )
        controller.start()
        flood_stage_b(two_stage_app, count=60)
        sim.run(until=30.0)
        launches = [
            action
            for action in controller.actions
            if isinstance(action, InstanceLaunchAction)
        ]
        assert launches
        assert launches[0].stage_name == "B"
        assert launches[0].stolen_jobs > 0

    def test_clone_steals_half_the_queue(self, sim, two_stage_app, machine):
        controller, _, _ = make_controller(
            PowerChiefController, sim, two_stage_app, machine
        )
        bottleneck = two_stage_app.stage("B").instances[0]
        flood_stage_b(two_stage_app, count=41)  # 1 in service + 40 waiting
        clone = controller.launch_clone(bottleneck)
        assert clone.stage_name == "B"
        assert clone.level == bottleneck.level
        assert clone.waiting_count + (1 if clone.busy else 0) == 20
        assert bottleneck.queue_length == 21

    def test_withdraw_runs_on_its_own_interval(self, sim, two_stage_app, machine):
        controller, _, _ = make_controller(
            PowerChiefController, sim, two_stage_app, machine
        )
        # Give stage B an extra instance that will stay idle.
        two_stage_app.stage("B").launch_instance(LEVEL_1_2)
        controller.start()
        sim.run(until=50.0)
        withdrawals = [
            action
            for action in controller.actions
            if isinstance(action, InstanceWithdrawAction)
        ]
        assert withdrawals
        assert withdrawals[0].stage_name == "B"

    def test_withdraw_can_be_disabled(self, sim, two_stage_app, machine):
        config = ControllerConfig(
            adjust_interval_s=5.0,
            balance_threshold_s=0.25,
            withdraw_interval_s=20.0,
            enable_withdraw=False,
        )
        controller, _, _ = make_controller(
            PowerChiefController, sim, two_stage_app, machine, config=config
        )
        two_stage_app.stage("B").launch_instance(LEVEL_1_2)
        controller.start()
        sim.run(until=100.0)
        assert not any(
            isinstance(action, InstanceWithdrawAction)
            for action in controller.actions
        )

    def test_budget_invariant_enforced_every_tick(self, sim, two_stage_app, machine):
        controller, _, budget = make_controller(
            PowerChiefController, sim, two_stage_app, machine
        )
        controller.start()
        flood_stage_b(two_stage_app, count=100)
        sim.run(until=100.0)
        budget.assert_within()

    def test_decisions_are_recorded(self, sim, two_stage_app, machine):
        controller, _, _ = make_controller(
            PowerChiefController, sim, two_stage_app, machine
        )
        controller.start()
        flood_stage_b(two_stage_app)
        sim.run(until=30.0)
        assert controller.decisions


class TestFreqBoostController:
    def test_boosts_bottleneck_frequency_only(self, sim, two_stage_app, machine):
        controller, _, _ = make_controller(
            FreqBoostController, sim, two_stage_app, machine
        )
        controller.start()
        flood_stage_b(two_stage_app)
        sim.run(until=30.0)
        assert not any(
            isinstance(action, InstanceLaunchAction) for action in controller.actions
        )
        boosts = [
            action
            for action in controller.actions
            if isinstance(action, FrequencyChangeAction) and action.reason == "boost"
        ]
        assert boosts
        assert boosts[0].stage_name == "B"
        assert boosts[0].to_level > boosts[0].from_level

    def test_recycles_from_fast_stage(self, sim, two_stage_app, machine):
        controller, _, _ = make_controller(
            FreqBoostController, sim, two_stage_app, machine
        )
        controller.start()
        flood_stage_b(two_stage_app)
        sim.run(until=30.0)
        recycles = [
            action
            for action in controller.actions
            if isinstance(action, FrequencyChangeAction) and action.reason == "recycle"
        ]
        assert recycles
        assert recycles[0].stage_name == "A"
        assert recycles[0].to_level < recycles[0].from_level

    def test_skips_once_bottleneck_at_max(self, sim, two_stage_app, machine):
        controller, _, _ = make_controller(
            FreqBoostController, sim, two_stage_app, machine, budget_watts=50.0
        )
        two_stage_app.stage("B").instances[0].core.set_level(HASWELL_LADDER.max_level)
        controller.start()
        flood_stage_b(two_stage_app)
        sim.run(until=10.0)
        assert any(
            isinstance(action, SkipAction) and "max frequency" in action.reason
            for action in controller.actions
        )


class TestInstBoostController:
    def test_launches_clones_while_power_lasts(self, sim, two_stage_app, machine):
        controller, _, budget = make_controller(
            InstBoostController, sim, two_stage_app, machine
        )
        controller.start()
        flood_stage_b(two_stage_app, count=100)
        sim.run(until=100.0)
        launches = [
            action
            for action in controller.actions
            if isinstance(action, InstanceLaunchAction)
        ]
        assert launches
        budget.assert_within()

    def test_locks_in_when_no_clone_fundable(self, sim, two_stage_app, machine):
        # Shrink the budget so that after the instances hit the floor no
        # clone can ever be funded: the Figure-11(b) lock-in.
        controller, _, _ = make_controller(
            InstBoostController, sim, two_stage_app, machine, budget_watts=9.06
        )
        controller.start()
        flood_stage_b(two_stage_app, count=100)
        sim.run(until=100.0)
        lock_in_skips = [
            action
            for action in controller.actions
            if isinstance(action, SkipAction) and "cannot fund a clone" in action.reason
        ]
        assert lock_in_skips
