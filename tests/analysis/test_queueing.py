"""Unit tests for the analytical queueing formulas, plus simulator
validation: the substrate must agree with M/M/1 and M/G/1 theory."""

from __future__ import annotations

import statistics

import pytest

from repro.analysis.queueing import (
    lognormal_cv2,
    mg1_mean_wait,
    mm1_mean_response,
    mm1_mean_wait,
    required_instances,
    utilization,
)
from repro.errors import ConfigurationError
from repro.cluster.frequency import HASWELL_LADDER
from repro.cluster.machine import Machine
from repro.service.application import Application
from repro.service.command_center import CommandCenter
from repro.service.demand import ExponentialDemand, LogNormalDemand
from repro.service.profile import PowerLawSpeedup, ServiceProfile
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads.loadgen import ConstantLoad, PoissonLoadGenerator, QueryFactory


class TestFormulas:
    def test_utilization(self):
        assert utilization(2.0, 4.0) == pytest.approx(0.5)

    def test_mm1_wait_half_load(self):
        # rho=0.5, s=1: W = 0.5*1/0.5 = 1.
        assert mm1_mean_wait(0.5, 1.0) == pytest.approx(1.0)

    def test_mm1_response(self):
        assert mm1_mean_response(0.5, 1.0) == pytest.approx(2.0)

    def test_mm1_wait_grows_without_bound_near_saturation(self):
        assert mm1_mean_wait(0.99, 1.0) > mm1_mean_wait(0.9, 1.0) * 5

    def test_unstable_queue_rejected(self):
        with pytest.raises(ConfigurationError):
            mm1_mean_wait(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            mg1_mean_wait(2.0, 1.0, 1.0)

    def test_mg1_reduces_to_mm1_at_cv2_one(self):
        # Exponential service: cv^2 = 1 -> P-K equals M/M/1.
        assert mg1_mean_wait(0.5, 1.0, 1.0) == pytest.approx(mm1_mean_wait(0.5, 1.0))

    def test_mg1_deterministic_is_half_of_mm1(self):
        assert mg1_mean_wait(0.5, 1.0, 0.0) == pytest.approx(
            0.5 * mm1_mean_wait(0.5, 1.0)
        )

    def test_lognormal_cv2(self):
        assert lognormal_cv2(0.0) == pytest.approx(0.0)
        assert lognormal_cv2(1.0) == pytest.approx(1.718281828, rel=1e-6)

    def test_required_instances(self):
        # 4 qps of 0.5s work at 80% cap -> ceil(2/0.8) = 3 instances.
        assert required_instances(4.0, 0.5) == 3
        assert required_instances(0.0, 0.5) == 1

    def test_required_instances_validation(self):
        with pytest.raises(ConfigurationError):
            required_instances(1.0, 1.0, max_utilization=1.0)


def t_interval_99(means: list[float]) -> tuple[float, float]:
    """The 99% Student-t interval for the mean of per-seed means."""
    stats = pytest.importorskip("scipy.stats")
    return stats.t.interval(
        0.99,
        len(means) - 1,
        loc=statistics.fmean(means),
        scale=statistics.stdev(means) / len(means) ** 0.5,
    )


def single_queue_mean_wait(demand, rate, duration=20_000.0, seed=17) -> float:
    """Mean queuing time of one instance at the ladder floor under
    Poisson arrivals, over every query completed by the end of the run."""
    sim = Simulator()
    machine = Machine(sim, n_cores=2)
    app = Application("mm1", sim, machine)
    profile = ServiceProfile(
        "S", demand, PowerLawSpeedup(HASWELL_LADDER.min_ghz, beta=1.0)
    )
    app.add_stage(profile).launch_instance(HASWELL_LADDER.min_level)
    waits: list[float] = []
    app.add_completion_listener(
        lambda query: waits.append(query.record_for("S").queuing_time)
    )
    streams = RandomStreams(seed)
    generator = PoissonLoadGenerator(
        sim, app, QueryFactory([profile], streams), ConstantLoad(rate),
        streams, duration,
    )
    generator.start()
    sim.run()
    return statistics.fmean(waits)


class TestSimulatorValidation:
    """The substrate's queues must match closed-form theory.

    Each check runs seeds 0-9 for 20,000 s and requires the theory to
    lie inside the 99% t-interval of the ten mean waits.
    """

    def assert_inside_interval(self, demand, expected):
        means = [
            single_queue_mean_wait(demand, rate=0.5, seed=seed)
            for seed in range(10)
        ]
        low, high = t_interval_99(means)
        assert low <= expected <= high, (means, low, high)

    def test_mm1_waiting_time_matches_theory(self):
        # Exponential(1.0s) service at the 1.2 GHz floor, lambda=0.5.
        self.assert_inside_interval(ExponentialDemand(1.0), mm1_mean_wait(0.5, 1.0))

    def test_mg1_lognormal_waiting_time_matches_pollaczek_khinchine(self):
        sigma = 0.6
        self.assert_inside_interval(
            LogNormalDemand(1.0, sigma=sigma),
            mg1_mean_wait(0.5, 1.0, lognormal_cv2(sigma)),
        )

    def test_higher_load_queues_longer(self):
        light = single_queue_mean_wait(ExponentialDemand(1.0), rate=0.3)
        heavy = single_queue_mean_wait(ExponentialDemand(1.0), rate=0.7)
        assert heavy > 2.0 * light


def run_tandem(
    seed: int,
    duration: float,
    mean_demand: float = 0.6,
    rate: float = 0.5,
    window: float = 60.0,
) -> list[float]:
    """End-to-end latencies of a raw three-stage pipeline: one instance
    per stage at the ladder floor, exponential demand at every stage,
    Poisson arrivals."""
    sim = Simulator()
    machine = Machine(sim, n_cores=3)
    app = Application("tandem", sim, machine)
    profiles = [
        ServiceProfile(
            name,
            ExponentialDemand(mean_demand),
            PowerLawSpeedup(HASWELL_LADDER.min_ghz, beta=1.0),
        )
        for name in ("A", "B", "C")
    ]
    for profile in profiles:
        app.add_stage(profile).launch_instance(HASWELL_LADDER.min_level)
    command_center = CommandCenter(
        sim, app, window_s=window, e2e_window_s=window / 2.0
    )
    streams = RandomStreams(seed)
    PoissonLoadGenerator(
        sim, app, QueryFactory(profiles, streams), ConstantLoad(rate),
        streams, duration,
    ).start()
    sim.run()
    return command_center.all_latencies


class TestTandemQueue:
    """A pipeline of M/M/1 stages against Jackson/Burke product form.

    By Burke's theorem each stage's departures are again Poisson, so the
    stages are independent M/M/1 queues and the mean response is the sum
    of theirs: 3 * s / (1 - rho) with s = 0.6 s and rho = 0.5 * 0.6.
    """

    def test_mean_latency_matches_jackson_network(self):
        expected = 3 * mm1_mean_response(0.5, 0.6)
        assert expected == pytest.approx(2.5714, abs=1e-4)
        means = [statistics.fmean(run_tandem(seed, 10_000.0)) for seed in range(5)]
        low, high = t_interval_99(means)
        assert low <= expected <= high, (means, low, high)

    def test_doubling_every_time_constant_doubles_every_latency(self):
        # Scaling by 2 is exact in binary floating point, so twice the
        # demand means, duration and window at half the rate must replay
        # the same events at exactly twice the times.  (At x3 the
        # products round differently, so only x2 is pinned.)
        base = run_tandem(1, 2_000.0)
        doubled = run_tandem(
            1, 4_000.0, mean_demand=1.2, rate=0.25, window=120.0
        )
        assert len(base) > 1000
        assert doubled == [2.0 * latency for latency in base]
