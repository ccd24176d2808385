"""Tests for the controller decision audit log.

The scripted scenario builds a real
:class:`~repro.core.controller.PowerChiefController` on an application
whose observability bundle carries an audit log, floods one stage,
and checks that the recorded entries reproduce the controller's actual
decisions: Equation-1 readings recompute to the recorded metric, and each
:class:`BoostEntry` carries exactly the ``T_inst`` / ``T_freq`` estimates
of the matching :class:`~repro.core.boosting.BoostingDecision`.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.budget import PowerBudget
from repro.cluster.dvfs import DvfsActuator
from repro.core.controller import ControllerConfig, PowerChiefController
from repro.core.metrics import equation1_metric
from repro.errors import ConfigurationError
from repro.obs import Observability
from repro.obs.audit import (
    AuditLog,
    BoostEntry,
    BottleneckEntry,
    InstanceMetricReading,
    RecycleEntry,
    SkipEntry,
    WithdrawEntry,
)
from repro.service.command_center import CommandCenter
from repro.service.instance import Job
from repro.service.query import Query

from tests.conftest import make_two_stage_app, submit_two_stage_query


def make_audited_controller(sim, machine, **config_overrides):
    """A PowerChief controller on a two-stage app whose observability
    bundle carries an audit log; returns the controller and the log."""
    audit = AuditLog()
    app = make_two_stage_app(sim, machine, Observability(audit=audit))
    settings = dict(
        adjust_interval_s=5.0,
        balance_threshold_s=0.25,
        withdraw_interval_s=1000.0,
    )
    settings.update(config_overrides)
    config = ControllerConfig(**settings)
    command_center = CommandCenter(sim, app, window_s=30.0)
    controller = PowerChiefController(
        sim, app, command_center, PowerBudget(machine, 13.56), DvfsActuator(sim), config
    )
    return controller, audit


def flood_stage_b(app, count=40, work=1.0):
    instance = app.stage("B").instances[0]
    for qid in range(count):
        instance.enqueue(
            Job(Query(30_000 + qid, {"B": work}), work=work, on_done=lambda q: None)
        )


class TestAuditLog:
    def test_bounded_with_drop_count(self):
        log = AuditLog(max_entries=1)
        log.record(SkipEntry(time=0.0, controller="c", reason="a"))
        log.record(SkipEntry(time=1.0, controller="c", reason="b"))
        assert len(log) == 1
        assert log.dropped == 1
        assert log.entries[0].reason == "a"

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ConfigurationError):
            AuditLog(max_entries=0)

    def test_of_kind_filters_in_order(self):
        log = AuditLog()
        log.record(SkipEntry(time=0.0, controller="c", reason="x"))
        log.record(
            WithdrawEntry(
                time=1.0, controller="c", instance="B_2", stage="B",
                utilization=0.1, redirected_jobs=3,
            )
        )
        log.record(SkipEntry(time=2.0, controller="c", reason="y"))
        assert [e.reason for e in log.of_kind(SkipEntry)] == ["x", "y"]
        assert len(log.of_kind(WithdrawEntry)) == 1

    def test_to_dict_carries_kind_discriminator(self):
        entry = SkipEntry(time=3.0, controller="powerchief", reason="balanced")
        data = entry.to_dict()
        assert data["kind"] == "skip"
        assert data["time"] == 3.0
        assert data["controller"] == "powerchief"

    def test_write_jsonl(self, tmp_path):
        log = AuditLog()
        log.record(SkipEntry(time=0.0, controller="c", reason="x"))
        path = log.write_jsonl(tmp_path / "audit.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "skip"


class TestScriptedScenario:
    def test_boost_entries_match_decisions(self, sim, machine):
        controller, audit = make_audited_controller(sim, machine)
        app = controller.application
        controller.start()
        for qid in range(10):
            submit_two_stage_query(app, qid)
        flood_stage_b(app)
        sim.run(until=60.0)

        boosts = audit.of_kind(BoostEntry)
        assert boosts, "flooded stage B never triggered a boost"
        assert len(boosts) == len(controller.decisions)
        for entry, decision in zip(boosts, controller.decisions):
            assert entry.decision == decision.kind.value
            assert entry.bottleneck == decision.bottleneck.name
            assert entry.t_inst == decision.expected_delay_instance
            assert entry.t_freq == decision.expected_delay_frequency
            assert entry.target_level == decision.target_level
            assert entry.reason == decision.reason
            assert entry.recycled_watts == decision.recycle_plan.recycled_watts
            assert len(entry.planned_drops) == len(decision.recycle_plan.drops)

    def test_bottleneck_readings_recompute_equation1(self, sim, machine):
        controller, audit = make_audited_controller(sim, machine)
        app = controller.application
        controller.start()
        flood_stage_b(app)
        sim.run(until=60.0)

        rankings = audit.of_kind(BottleneckEntry)
        assert rankings, "no ranking pass was audited"
        for entry in rankings:
            assert entry.readings, "a ranking pass must carry readings"
            for reading in entry.readings:
                assert reading.metric == pytest.approx(
                    equation1_metric(
                        reading.queue_length,
                        reading.avg_queuing,
                        reading.avg_serving,
                    )
                )
            # Readings are fast-to-slow; the named bottleneck is last.
            metrics = [reading.metric for reading in entry.readings]
            assert metrics == sorted(metrics)
            assert entry.bottleneck == entry.readings[-1].instance
            assert entry.spread == pytest.approx(metrics[-1] - metrics[0])

    def test_every_tick_is_accounted_for(self, sim, machine):
        controller, audit = make_audited_controller(sim, machine)
        app = controller.application
        controller.start()
        flood_stage_b(app, count=20)
        sim.run(until=60.0)
        # Each adjust tick records one ranking pass, then either a boost
        # or a skip — nothing falls through unaudited.
        rankings = audit.of_kind(BottleneckEntry)
        boosts = audit.of_kind(BoostEntry)
        skips = audit.of_kind(SkipEntry)
        assert len(rankings) == controller.ticks
        assert len(boosts) + len(skips) == controller.ticks

    def test_recycle_entries_are_consistent(self, sim, machine):
        controller, audit = make_audited_controller(sim, machine)
        app = controller.application
        controller.start()
        flood_stage_b(app)
        sim.run(until=120.0)
        for entry in audit.of_kind(RecycleEntry):
            assert entry.drops
            assert entry.recycled_watts == pytest.approx(
                sum(drop.watts_freed for drop in entry.drops)
            )
            for drop in entry.drops:
                assert drop.to_level < drop.from_level
                assert drop.watts_freed > 0.0

    def test_withdraw_entries_record_utilization(self, sim, machine):
        # Short withdraw cadence + a load burst that then drains: clones
        # launched for the burst go idle and get withdrawn below 20 %.
        controller, audit = make_audited_controller(
            sim, machine, withdraw_interval_s=20.0
        )
        controller.start()
        flood_stage_b(controller.application, count=30)
        sim.run(until=300.0)
        withdraws = audit.of_kind(WithdrawEntry)
        withdraw_actions = [
            action
            for action in controller.actions
            if type(action).__name__ == "InstanceWithdrawAction"
        ]
        assert len(withdraws) == len(withdraw_actions)
        for entry in withdraws:
            assert 0.0 <= entry.utilization < controller.config.withdraw_utilization
            assert entry.redirected_jobs >= 0

    def test_detached_controller_records_nothing(self, sim, two_stage_app, machine):
        config = ControllerConfig(
            adjust_interval_s=5.0,
            balance_threshold_s=0.25,
            withdraw_interval_s=1000.0,
        )
        command_center = CommandCenter(sim, two_stage_app, window_s=30.0)
        controller = PowerChiefController(
            sim,
            two_stage_app,
            command_center,
            PowerBudget(machine, 13.56),
            DvfsActuator(sim),
            config,
        )
        controller.start()
        flood_stage_b(two_stage_app)
        sim.run(until=30.0)
        assert controller.audit is None
        assert controller.decisions, "scenario should still decide something"

    def test_jsonl_export_of_live_log(self, sim, machine, tmp_path):
        controller, audit = make_audited_controller(sim, machine)
        app = controller.application
        controller.start()
        flood_stage_b(app)
        sim.run(until=60.0)
        path = audit.write_jsonl(tmp_path / "audit.jsonl")
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(entries) == len(audit)
        kinds = {entry["kind"] for entry in entries}
        assert "bottleneck" in kinds
        assert "boost" in kinds
