"""Integration tests of system-wide invariants, including fault injection.

The hard invariants:

* the power budget is never exceeded, whatever the controller does;
* no query is ever lost — submitted = completed + still-in-flight;
* every completed query carries a complete record per pipeline stage;
* work conservation: a query's measured serving time matches its demand
  through whatever DVFS changes happened mid-service.
"""

from __future__ import annotations

import pytest

from repro.cluster.budget import PowerBudget
from repro.cluster.dvfs import DvfsActuator
from repro.cluster.frequency import HASWELL_LADDER
from repro.core.controller import BaseController, ControllerConfig
from repro.scenario import ScenarioSpec, run_scenario
from repro.service.command_center import CommandCenter
from repro.sim.rng import RandomStreams
from repro.workloads.loadgen import (
    ConstantLoad,
    PoissonLoadGenerator,
    QueryFactory,
)
from repro.workloads.sirius import sirius_load_levels

from tests.conftest import make_profile, submit_two_stage_query


class ChaosController(BaseController):
    """Fault injection: random (but budget-checked) actions every tick.

    Randomly retunes cores, launches clones and withdraws instances to
    stress the substrate; the point is that *no* sequence of controller
    actions may corrupt queries or overdraw the budget.
    """

    name = "chaos"

    def __init__(self, *args, rng, **kwargs):
        super().__init__(*args, **kwargs)
        self._rng = rng

    def adjust(self, now: float) -> None:
        ladder = self.budget.machine.ladder
        model = self.budget.machine.power_model
        for _ in range(3):
            choice = self._rng.randrange(3)
            instances = self.application.running_instances()
            instance = instances[self._rng.randrange(len(instances))]
            if choice == 0:
                current = model.power_of_level(ladder, instance.level)
                target = self._rng.randrange(ladder.n_levels)
                extra = model.power_of_level(ladder, target) - current
                if extra <= self.budget.available():
                    self.set_instance_level(instance, target, reason="chaos")
            elif choice == 1:
                cost = model.power_of_level(ladder, instance.level)
                if (
                    self.budget.fits(cost)
                    and self.budget.machine.free_core_count() > 0
                ):
                    self.launch_clone(instance)
            else:
                stage = self.application.stage(instance.stage_name)
                if len(stage.running_instances()) > 1:
                    others = [
                        other
                        for other in stage.running_instances()
                        if other is not instance
                    ]
                    stage.withdraw_instance(instance, redirect_to=others[0])


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_chaos_controller_preserves_all_invariants(sim, machine, seed):
    from repro.service.application import Application

    app = Application("chaos-app", sim, machine)
    level = HASWELL_LADDER.level_of(1.8)
    profiles = [make_profile("A", mean=0.3, sigma=0.5), make_profile("B", mean=0.8, sigma=0.5)]
    for profile in profiles:
        app.add_stage(profile).launch_instance(level)
    command_center = CommandCenter(sim, app)
    budget = PowerBudget(machine, 13.56)
    rng = RandomStreams(seed).stream("chaos")
    controller = ChaosController(
        sim,
        app,
        command_center,
        budget,
        DvfsActuator(sim),
        ControllerConfig(adjust_interval_s=3.0, balance_threshold_s=0.0),
        rng=rng,
    )
    streams = RandomStreams(seed)
    factory = QueryFactory(profiles, streams)
    generator = PoissonLoadGenerator(
        sim, app, factory, ConstantLoad(1.2), streams, 200.0
    )
    controller.start()
    generator.start()
    sim.run(until=200.0)
    budget.assert_within()

    # No query lost.
    assert app.completed + app.in_flight == generator.queries_submitted
    # Completed queries all ingested with sane latencies.
    latencies = command_center.all_latencies
    assert len(latencies) == app.completed
    assert all(latency >= 0.0 for latency in latencies)

    # Drain the rest with the controller stopped: still nothing lost.
    controller.stop()
    sim.run()
    assert app.completed == generator.queries_submitted


def test_records_complete_for_every_stage(sim, two_stage_app):
    command_center = CommandCenter(sim, two_stage_app)
    queries = [submit_two_stage_query(two_stage_app, qid) for qid in range(20)]
    sim.run()
    for query in queries:
        assert query.completed
        stages = [record.stage_name for record in query.records]
        assert stages == ["A", "B"]
        for record in query.records:
            assert record.complete
            assert record.finish_time >= record.start_time >= record.enqueue_time


def test_serving_time_conserves_work_across_dvfs_changes(sim, two_stage_app):
    # Retune stage B's core mid-service repeatedly; the serving time must
    # equal the integral of speed over time for the demanded work.
    instance = two_stage_app.stage("B").instances[0]
    query = submit_two_stage_query(two_stage_app, 1, a=0.0, b=3.0)
    sim.run(until=0.5)
    instance.core.set_level(HASWELL_LADDER.max_level)
    sim.run(until=1.0)
    instance.core.set_level(HASWELL_LADDER.min_level)
    sim.run()
    record = query.record_for("B")
    # Work done: 0.5s at 1.8 GHz (=0.75 work), 0.5s at 2.4 (=1.0 work),
    # remaining 1.25 work at 1.2 GHz takes 1.25s. Total serving 2.25s.
    assert record.serving_time == pytest.approx(2.25)


def test_latency_decomposition_matches_end_to_end():
    levels = sirius_load_levels()
    result = run_scenario(
        ScenarioSpec.latency(
            "sirius", "powerchief", ("constant", levels.medium_qps), 300.0, seed=5
        )
    )
    assert result.queries_completed > 50


def test_query_conservation_under_every_policy():
    levels = sirius_load_levels()
    for policy in ("static", "freq-boost", "inst-boost", "powerchief"):
        result = run_scenario(
            ScenarioSpec.latency(
                "sirius", policy, ("constant", levels.medium_qps), 200.0, seed=11
            )
        )
        assert result.queries_completed <= result.queries_submitted
        assert result.queries_completed > 0
