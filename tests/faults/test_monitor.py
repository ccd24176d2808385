"""Health monitor: hang detection, respawn, and the power reservation."""

from __future__ import annotations

import pytest

from repro.cluster.budget import PowerBudget
from repro.cluster.frequency import HASWELL_LADDER
from repro.faults.monitor import HealthMonitor, ResilienceConfig
from repro.service.application import Application
from repro.service.instance import Job
from repro.service.query import Query

from tests.conftest import make_profile

LOW = HASWELL_LADDER.min_level
HIGH = HASWELL_LADDER.max_level

CONFIG = ResilienceConfig(health_interval_s=1.0, hang_service_timeout_s=5.0)


def build_app(sim, machine, count=2, level=LOW):
    app = Application("app", sim, machine)
    stage = app.add_stage(make_profile("SVC", mean=1.0))
    for _ in range(count):
        stage.launch_instance(level)
    return app, stage


def power_at(machine, level):
    return machine.power_model.power_of_level(machine.ladder, level)


class TestHangDetection:
    def test_hung_instance_is_recycled(self, sim, machine):
        app, stage = build_app(sim, machine)
        budget = PowerBudget(machine, machine.peak_power())
        monitor = HealthMonitor(sim, app, budget, config=CONFIG)
        victim = stage.running_instances()[0]
        victim.enqueue(Job(Query(1, {"SVC": 1.0}), 1.0, lambda q: None))
        victim.hang()
        monitor.start()
        sim.run(until=10.0)
        monitor.stop()
        assert monitor.hangs_detected == 1
        assert not victim.running
        assert stage.crashes == 1
        # The replacement was respawned, restoring the pool size.
        assert len(stage.running_instances()) == 2
        assert monitor.respawns == 1

    def test_healthy_slow_instance_is_left_alone(self, sim, machine):
        app, stage = build_app(sim, machine)
        budget = PowerBudget(machine, machine.peak_power())
        monitor = HealthMonitor(sim, app, budget, config=CONFIG)
        worker = stage.running_instances()[0]
        # 4 s of service: under the 5 s watchdog threshold.
        worker.enqueue(Job(Query(1, {"SVC": 4.0}), 4.0, lambda q: None))
        monitor.start()
        sim.run(until=10.0)
        monitor.stop()
        assert monitor.hangs_detected == 0
        assert worker.running


class TestRespawn:
    def test_crash_triggers_respawn_at_same_level(self, sim, machine):
        app, stage = build_app(sim, machine, level=HIGH)
        budget = PowerBudget(machine, machine.peak_power())
        monitor = HealthMonitor(sim, app, budget, config=CONFIG)
        monitor.start()
        victim = stage.running_instances()[0]
        stage.crash_instance(victim)
        assert monitor.crashes_seen == 1
        assert monitor.pending_respawns == 1
        sim.run(until=2.0)
        monitor.stop()
        assert monitor.respawns == 1
        assert monitor.pending_respawns == 0
        levels = [inst.level for inst in stage.running_instances()]
        assert levels == [HIGH, HIGH]

    def test_respawn_steps_down_when_power_is_tight(self, sim, machine):
        app, stage = build_app(sim, machine, count=2, level=HIGH)
        # A co-tenant core burns most of the crash dividend, so after the
        # crash only a LOW replacement fits the remaining headroom.
        machine.acquire_core(HIGH)
        budget = PowerBudget(
            machine, 2 * power_at(machine, HIGH) + power_at(machine, LOW) + 0.05
        )
        monitor = HealthMonitor(sim, app, budget, config=CONFIG)
        monitor.start()
        stage.crash_instance(stage.running_instances()[0])
        sim.run(until=2.0)
        monitor.stop()
        assert monitor.respawns == 1
        levels = sorted(inst.level for inst in stage.running_instances())
        assert levels == [LOW, HIGH]

    def test_crash_reserves_headroom_against_the_controller(self, sim, machine):
        app, stage = build_app(sim, machine, count=2, level=LOW)
        budget = PowerBudget(machine, 3 * power_at(machine, LOW) + 0.1)
        monitor = HealthMonitor(sim, app, budget, config=CONFIG)
        monitor.start()
        free_before = budget.available()
        stage.crash_instance(stage.running_instances()[0])
        # The freed wattage is reserved, not offered: a controller asking
        # "can I spend the crash dividend?" is told no.
        assert budget.reserved_watts == pytest.approx(power_at(machine, LOW))
        assert budget.available() == pytest.approx(free_before)
        sim.run(until=2.0)
        monitor.stop()
        assert monitor.respawns == 1
        assert budget.reserved_watts == pytest.approx(0.0)

    def test_pending_respawn_keeps_its_reservation_across_ticks(
        self, sim, machine
    ):
        # The reservation outlives the crash listener: each tick hands it
        # back for the attempt and takes it again when nothing fits, so it
        # stays put until the replacement launches.
        app, stage = build_app(sim, machine, count=2, level=HIGH)
        budget = PowerBudget(machine, 2 * power_at(machine, HIGH) + 0.1)
        monitor = HealthMonitor(sim, app, budget, config=CONFIG)
        monitor.start()
        stage.crash_instance(stage.running_instances()[0])
        reserved = budget.reserved_watts
        assert reserved == pytest.approx(power_at(machine, HIGH))
        # A co-tenant takes the freed core's power: no level fits now.
        tenant = machine.acquire_core(HIGH)
        sim.run(until=3.5)
        assert monitor.respawns == 0
        assert monitor.pending_respawns == 1
        assert budget.reserved_watts == reserved
        machine.release_core(tenant)
        sim.run(until=5.0)
        monitor.stop()
        assert monitor.respawns == 1
        assert monitor.pending_respawns == 0
        assert budget.reserved_watts == pytest.approx(0.0)

    def test_respawn_disabled(self, sim, machine):
        app, stage = build_app(sim, machine)
        budget = PowerBudget(machine, machine.peak_power())
        config = ResilienceConfig(
            health_interval_s=1.0, hang_service_timeout_s=5.0, respawn=False
        )
        monitor = HealthMonitor(sim, app, budget, config=config)
        monitor.start()
        stage.crash_instance(stage.running_instances()[0])
        sim.run(until=3.0)
        monitor.stop()
        assert monitor.respawns == 0
        assert len(stage.running_instances()) == 1
