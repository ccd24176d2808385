"""Unit tests for report formatting and the timeline samplers."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.report import format_heading, format_table
from repro.scenario.sampling import QosSampler, StateSampler
from repro.service.command_center import CommandCenter

from tests.conftest import submit_two_stage_query


class TestFormatting:
    def test_heading_is_boxed(self):
        text = format_heading("Title")
        assert text.splitlines() == ["=====", "Title", "====="]

    def test_table_alignment(self):
        text = format_table(["name", "x"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "---" in lines[1]
        assert lines[2].startswith("a")
        assert lines[3].startswith("long-name")

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])


class TestStateSampler:
    def test_samples_stage_state(self, sim, two_stage_app):
        sampler = StateSampler(sim, two_stage_app, sample_interval_s=10.0)
        sampler.start()
        sim.run(until=30.0)
        sampler.stop()
        assert len(sampler.samples) == 4  # t=0,10,20,30
        sample = sampler.samples[0]
        assert {snap.stage_name for snap in sample.stages} == {"A", "B"}
        assert sample.stage("A").instance_count == 1
        assert sample.total_power_watts == pytest.approx(2 * 4.52)

    def test_records_frequencies_per_instance(self, sim, two_stage_app):
        sampler = StateSampler(sim, two_stage_app, sample_interval_s=5.0)
        sampler.start()
        sim.run(until=5.0)
        names_and_freqs = sampler.samples[-1].stage("B").frequencies
        assert names_and_freqs == (("B_1", pytest.approx(1.8)),)

    def test_max_instances(self, sim, two_stage_app):
        sampler = StateSampler(sim, two_stage_app, sample_interval_s=5.0)
        sampler.start()
        sim.run(until=5.0)
        two_stage_app.stage("B").launch_instance(0)
        sim.run(until=10.0)
        assert sampler.max_instances("B") == 2
        assert sampler.max_instances("A") == 1

    def test_unknown_stage_raises(self, sim, two_stage_app):
        sampler = StateSampler(sim, two_stage_app, sample_interval_s=5.0)
        sampler.start()
        sim.run(until=5.0)
        with pytest.raises(KeyError):
            sampler.samples[0].stage("NOPE")

    def test_invalid_interval_rejected(self, sim, two_stage_app):
        with pytest.raises(ConfigurationError):
            StateSampler(sim, two_stage_app, sample_interval_s=0.0)


class TestQosSampler:
    @pytest.fixture
    def sampler(self, sim, two_stage_app):
        command_center = CommandCenter(sim, two_stage_app, e2e_window_s=60.0)
        return QosSampler(
            sim,
            two_stage_app,
            command_center,
            qos_target_s=2.0,
            reference_power_watts=2 * 4.52,
            sample_interval_s=10.0,
        )

    def test_latency_fraction_none_before_any_query(self, sim, sampler):
        sampler.start()
        sim.run(until=10.0)
        assert sampler.samples[0].latency_fraction is None

    def test_fractions_after_queries(self, sim, two_stage_app, sampler):
        sampler.start()
        submit_two_stage_query(two_stage_app, 1)
        sim.run(until=10.0)
        sample = sampler.samples[-1]
        assert sample.latency_fraction == pytest.approx(1.2 * (2 / 3) / 2.0)
        assert sample.power_fraction == pytest.approx(1.0)

    def test_violation_fraction(self, sim, two_stage_app, sampler):
        sampler.start()
        submit_two_stage_query(two_stage_app, 1, b=10.0)  # ~6.8s >> 2s target
        sim.run(until=20.0)
        assert sampler.violation_fraction() > 0.0

    def test_average_power_fraction(self, sim, sampler):
        sampler.start()
        sim.run(until=20.0)
        assert sampler.average_power_fraction() == pytest.approx(1.0)

    def test_invalid_parameters_rejected(self, sim, two_stage_app):
        command_center = CommandCenter(sim, two_stage_app)
        with pytest.raises(ConfigurationError):
            QosSampler(sim, two_stage_app, command_center, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            QosSampler(sim, two_stage_app, command_center, 1.0, 0.0)
