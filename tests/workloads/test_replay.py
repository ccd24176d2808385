"""Unit tests for the trace-replay load generator."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams
from repro.workloads.loadgen import QueryFactory
from repro.workloads.replay import ReplayLoadGenerator

from tests.conftest import make_profile


@pytest.fixture
def factory():
    return QueryFactory(
        [make_profile("A", mean=0.2), make_profile("B", mean=1.0)],
        RandomStreams(1),
    )


class TestReplay:
    def test_submits_at_exact_times(self, sim, two_stage_app, factory):
        arrivals = []
        two_stage_app.add_completion_listener(
            lambda q: arrivals.append(q.arrival_time)
        )
        generator = ReplayLoadGenerator(
            sim, two_stage_app, factory, [0.5, 1.5, 4.0]
        )
        generator.start()
        sim.run()
        assert arrivals == [0.5, 1.5, 4.0]
        assert generator.queries_submitted == 3

    def test_explicit_demands_are_replayed(self, sim, two_stage_app, factory):
        demands = [{"A": 0.1, "B": 0.2}, {"A": 0.3, "B": 0.4}]
        completed = []
        two_stage_app.add_completion_listener(completed.append)
        generator = ReplayLoadGenerator(
            sim, two_stage_app, factory, [0.0, 10.0], demands=demands
        )
        generator.start()
        sim.run()
        assert completed[0].demands == {"A": 0.1, "B": 0.2}
        assert completed[1].demands == {"A": 0.3, "B": 0.4}

    def test_times_relative_to_start_instant(self, sim, two_stage_app, factory):
        sim.schedule(5.0, lambda: None)
        sim.run()
        arrivals = []
        two_stage_app.add_completion_listener(
            lambda q: arrivals.append(q.arrival_time)
        )
        generator = ReplayLoadGenerator(sim, two_stage_app, factory, [1.0])
        generator.start()
        sim.run()
        assert arrivals == [6.0]

    def test_simultaneous_arrivals_allowed(self, sim, two_stage_app, factory):
        generator = ReplayLoadGenerator(
            sim, two_stage_app, factory, [1.0, 1.0, 1.0]
        )
        generator.start()
        sim.run()
        assert two_stage_app.completed == 3

    def test_replay_reproduces_a_recorded_run(self, sim, two_stage_app, factory):
        # Record a run's arrivals + demands, then replay them on a fresh
        # system: identical end-to-end latencies.
        from repro.cluster.machine import Machine
        from repro.service.application import Application
        from repro.sim.engine import Simulator

        recorded = []
        two_stage_app.add_completion_listener(recorded.append)
        generator = ReplayLoadGenerator(
            sim, two_stage_app, factory, [0.0, 0.4, 0.9, 2.2]
        )
        generator.start()
        sim.run()
        original = [q.end_to_end_latency for q in recorded]

        sim2 = Simulator()
        machine2 = Machine(sim2, n_cores=8)
        app2 = Application("replayed", sim2, machine2)
        for profile in (make_profile("A", mean=0.2), make_profile("B", mean=1.0)):
            app2.add_stage(profile).launch_instance(6)
        replayed = []
        app2.add_completion_listener(replayed.append)
        generator2 = ReplayLoadGenerator(
            sim2,
            app2,
            QueryFactory([make_profile("A"), make_profile("B")], RandomStreams(9)),
            [q.arrival_time for q in recorded],
            demands=[q.demands for q in recorded],
        )
        generator2.start()
        sim2.run()
        assert [q.end_to_end_latency for q in replayed] == pytest.approx(original)

    def test_validation(self, sim, two_stage_app, factory):
        with pytest.raises(ConfigurationError):
            ReplayLoadGenerator(sim, two_stage_app, factory, [])
        with pytest.raises(ConfigurationError):
            ReplayLoadGenerator(sim, two_stage_app, factory, [1.0, 0.5])
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                ReplayLoadGenerator(sim, two_stage_app, factory, [bad])
        with pytest.raises(ConfigurationError):
            ReplayLoadGenerator(
                sim, two_stage_app, factory, [0.0, 1.0], demands=[{"A": 1.0}]
            )
        generator = ReplayLoadGenerator(sim, two_stage_app, factory, [0.0])
        generator.start()
        with pytest.raises(ConfigurationError):
            generator.start()
