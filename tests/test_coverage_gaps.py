"""Targeted tests for small behaviours not covered elsewhere."""

from __future__ import annotations

import pytest

from repro.cluster.budget import PowerBudget
from repro.cluster.dvfs import DvfsActuator
from repro.cluster.frequency import HASWELL_LADDER
from repro.core.boosting import BoostingDecision, BoostKind
from repro.core.controller import ControllerConfig, PowerChiefController
from repro.core.recycling import RecyclePlan
from repro.core.actions import SkipAction
from repro.service.command_center import CommandCenter
from repro.util.percentile import LatencySummary

from tests.conftest import make_profile, submit_two_stage_query


class TestApplyNoneDecision:
    def test_none_decision_logs_a_skip(self, sim, two_stage_app, machine):
        command_center = CommandCenter(sim, two_stage_app)
        controller = PowerChiefController(
            sim,
            two_stage_app,
            command_center,
            PowerBudget(machine, 13.56),
            DvfsActuator(sim),
            ControllerConfig(),
        )
        bottleneck = two_stage_app.stage("B").instances[0]
        decision = BoostingDecision(
            kind=BoostKind.NONE,
            bottleneck=bottleneck,
            recycle_plan=RecyclePlan(needed_watts=0.0),
            reason="synthetic",
        )
        controller.apply_boosting_decision(decision)
        assert isinstance(controller.actions[-1], SkipAction)
        assert "synthetic" in controller.actions[-1].reason


class TestResultProperties:
    def test_completion_fraction(self):
        from repro.scenario import RunResult

        result = RunResult(
            app="sirius",
            policy="static",
            duration_s=10.0,
            queries_submitted=20,
            queries_completed=15,
            latency=LatencySummary(15, 1.0, 1.0, 1.0, 1.0, 1.0),
            average_power_watts=10.0,
            actions=(),
            state_samples=(),
        )
        assert result.completion_fraction == pytest.approx(0.75)

    def test_completion_fraction_with_no_arrivals(self):
        from repro.scenario import RunResult

        result = RunResult(
            app="sirius",
            policy="static",
            duration_s=10.0,
            queries_submitted=0,
            queries_completed=0,
            latency=LatencySummary(1, 1.0, 1.0, 1.0, 1.0, 1.0),
            average_power_watts=10.0,
            actions=(),
            state_samples=(),
        )
        assert result.completion_fraction == 0.0


class TestLoadLevelEdges:
    def test_piecewise_time_before_second_segment(self):
        from repro.workloads.loadgen import PiecewiseLoad

        trace = PiecewiseLoad([(0.0, 2.0), (100.0, 5.0)])
        assert trace.rate_at(0.0) == 2.0

    def test_saturation_rate_with_partial_mapping(self):
        from repro.workloads.levels import saturation_rate

        profiles = [make_profile("A", mean=1.0), make_profile("B", mean=1.0)]
        # B defaults to 1 instance; A gets 4.
        rate = saturation_rate(profiles, 1.2, instances_per_stage={"A": 4})
        assert rate == pytest.approx(1.0)

    def test_saturation_rate_rejects_zero_instances(self):
        from repro.errors import ConfigurationError
        from repro.workloads.levels import saturation_rate

        with pytest.raises(ConfigurationError):
            saturation_rate([make_profile("A")], 1.2, instances_per_stage={"A": 0})


class TestInstanceDrainMidService:
    def test_drain_completes_in_service_job_first(self, sim, two_stage_app):
        instance = two_stage_app.stage("B").instances[0]
        query = submit_two_stage_query(two_stage_app, 1)
        sim.run(until=0.05)  # B not reached yet; finish A first
        sim.run(until=0.2)
        drained = []
        # B is serving by now; drain must wait for the job.
        if not instance.busy:
            sim.run(until=0.3)
        instance_busy_before = instance.busy
        instance.drain(drained.append)
        if instance_busy_before:
            assert drained == []
        sim.run()
        assert drained == [instance]
        assert query.completed


class TestCommandCenterWindows:
    def test_stats_age_out_of_instance_window(self, sim, two_stage_app):
        command_center = CommandCenter(sim, two_stage_app, window_s=5.0)
        submit_two_stage_query(two_stage_app, 1)
        sim.run()
        instance = two_stage_app.stage("B").instances[0]
        assert command_center.sample_count(instance) == 1
        sim.run(until=sim.now + 50.0)
        assert command_center.sample_count(instance) == 0
        # Serving falls back to the profile prior once everything aged out.
        prior = instance.profile.mean_serving_time(instance.frequency_ghz)
        assert command_center.avg_serving(instance) == pytest.approx(prior)


class TestFig02Accessors:
    def test_best_and_worst_are_distinct(self):
        from repro.experiments.figures.fig02 import Fig02Bar, Fig02Result

        bars = (
            Fig02Bar("QA", "frequency", 0.9, {}),
            Fig02Bar("IMM", "instance", 1.5, {}),
        )
        result = Fig02Result(baseline_mean_s=1.0, bars=bars)
        assert result.best().stage == "QA"
        assert result.worst().stage == "IMM"


class TestLadderSingleLevelEdge:
    def test_single_level_ladder_boosting_degenerates_safely(self, sim):
        from repro.cluster.frequency import FrequencyLadder
        from repro.cluster.machine import Machine
        from repro.cluster.power import CubicPowerModel

        ladder = FrequencyLadder(min_ghz=2.0, max_ghz=2.0, step_ghz=0.1)
        machine = Machine(
            sim, n_cores=2, ladder=ladder, power_model=CubicPowerModel()
        )
        core = machine.acquire_core(0)
        actuator = DvfsActuator(sim)
        assert actuator.step_up(core) is None
        assert actuator.step_down(core) is None
