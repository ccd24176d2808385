"""Unit tests for power-budget enforcement and the DVFS actuator."""

from __future__ import annotations

import math

import pytest

from repro.errors import ClusterError, PowerBudgetExceeded
from repro.cluster.budget import PowerBudget
from repro.cluster.dvfs import DvfsActuator
from repro.cluster.frequency import HASWELL_LADDER
from repro.cluster.power import DEFAULT_POWER_MODEL


LEVEL_1_8 = HASWELL_LADDER.level_of(1.8)


class TestPowerBudget:
    def test_available_is_budget_minus_draw(self, machine, budget):
        machine.acquire_core(LEVEL_1_8)
        assert budget.available() == pytest.approx(13.56 - 4.52)

    def test_fits_respects_headroom(self, machine, budget):
        machine.acquire_core(LEVEL_1_8)
        machine.acquire_core(LEVEL_1_8)
        assert budget.fits(4.52)
        assert not budget.fits(4.53)

    def test_check_raises_with_context(self, machine, budget):
        machine.acquire_core(LEVEL_1_8)
        machine.acquire_core(LEVEL_1_8)
        machine.acquire_core(LEVEL_1_8)
        with pytest.raises(PowerBudgetExceeded) as excinfo:
            budget.check(1.0)
        assert excinfo.value.requested == pytest.approx(1.0)
        assert excinfo.value.available == pytest.approx(0.0, abs=1e-9)

    def test_exact_fill_is_within_budget(self, machine, budget):
        for _ in range(3):
            machine.acquire_core(LEVEL_1_8)
        budget.assert_within()

    def test_assert_within_detects_overdraw(self, machine):
        tight = PowerBudget(machine, 4.0)
        machine.acquire_core(LEVEL_1_8)
        with pytest.raises(PowerBudgetExceeded):
            tight.assert_within()

    def test_utilization(self, machine, budget):
        machine.acquire_core(LEVEL_1_8)
        assert budget.utilization() == pytest.approx(4.52 / 13.56)

    def test_available_never_negative(self, machine):
        tight = PowerBudget(machine, 1.0)
        machine.acquire_core(LEVEL_1_8)
        assert tight.available() == 0.0

    def test_nonpositive_budget_rejected(self, machine):
        # NaN slips past every ordered comparison and inf past the cap.
        for watts in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ClusterError):
                PowerBudget(machine, watts)


class TestDvfsActuator:
    def test_immediate_transition_by_default(self, sim, machine):
        actuator = DvfsActuator(sim)
        core = machine.acquire_core(LEVEL_1_8)
        actuator.set_level(core, HASWELL_LADDER.max_level)
        assert core.level == HASWELL_LADDER.max_level
        assert actuator.requests == 1

    def test_invalid_level_rejected(self, sim, machine):
        actuator = DvfsActuator(sim)
        core = machine.acquire_core(LEVEL_1_8)
        with pytest.raises(Exception):
            actuator.set_level(core, 99)


class TestTelemetry:
    def test_samples_power_timeline(self, sim, machine):
        from repro.cluster.telemetry import PowerTelemetry

        telemetry = PowerTelemetry(sim, machine, sample_interval_s=1.0)
        telemetry.start()
        # The t=0 sample fires inside run(), after this core is active.
        machine.acquire_core(LEVEL_1_8)
        sim.run(until=3.0)
        telemetry.stop()
        assert [round(s.watts, 2) for s in telemetry.samples] == [4.52] * 4
        assert [s.time for s in telemetry.samples] == [0.0, 1.0, 2.0, 3.0]

    def test_average_and_peak(self, sim, machine):
        from repro.cluster.telemetry import PowerTelemetry

        telemetry = PowerTelemetry(sim, machine, sample_interval_s=1.0)
        telemetry.start()
        sim.run(until=1.0)
        machine.acquire_core(LEVEL_1_8)
        sim.run(until=3.0)
        assert telemetry.peak_power() == pytest.approx(4.52)
        assert telemetry.average_power(since=2.0) == pytest.approx(4.52)

    def test_energy_trapezoid(self, sim, machine):
        from repro.cluster.telemetry import PowerTelemetry

        telemetry = PowerTelemetry(sim, machine, sample_interval_s=1.0)
        machine.acquire_core(LEVEL_1_8)
        telemetry.start()
        sim.run(until=10.0)
        assert telemetry.energy_joules() == pytest.approx(4.52 * 10.0)

    def test_fractions_of_reference(self, sim, machine):
        from repro.cluster.telemetry import PowerTelemetry

        telemetry = PowerTelemetry(sim, machine, sample_interval_s=1.0)
        machine.acquire_core(LEVEL_1_8)
        telemetry.start()
        sim.run(until=2.0)
        fractions = telemetry.fractions_of(9.04)
        assert all(value == pytest.approx(0.5) for _, value in fractions)

    def test_noise_perturbs_samples_inside_its_window_only(self, sim, machine):
        from repro.cluster.telemetry import PowerTelemetry
        from repro.sim.rng import SeededStream

        telemetry = PowerTelemetry(sim, machine, sample_interval_s=1.0)
        machine.acquire_core(LEVEL_1_8)
        # A fraction above 1 can push a sample below zero: it clamps.
        telemetry.inject_noise(4.0, 1.5, SeededStream(1, "noise"))
        telemetry.start()
        sim.run(until=7.0)
        draws = SeededStream(1, "noise")
        watts = machine.total_power()
        inside = [
            max(0.0, watts * (1.0 + 1.5 * draws.uniform(-1.0, 1.0)))
            for _ in range(4)
        ]
        assert [s.time for s in telemetry.samples] == [float(t) for t in range(8)]
        assert [s.watts for s in telemetry.samples] == inside + [watts] * 4
        assert 0.0 in inside and len(set(inside)) == 4

    def test_empty_summaries(self, sim, machine):
        from repro.cluster.telemetry import PowerTelemetry

        telemetry = PowerTelemetry(sim, machine)
        assert telemetry.average_power() is None
        assert telemetry.last_known_good() is None
        assert telemetry.seconds_since_last_sample(0.0) is None
        assert telemetry.peak_power() == 0.0
        assert telemetry.energy_joules() == 0.0
