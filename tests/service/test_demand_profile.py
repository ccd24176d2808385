"""Unit tests for demand distributions and service profiles."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, FrequencyError
from repro.service.demand import (
    DeterministicDemand,
    ExponentialDemand,
    LogNormalDemand,
)
from repro.service.profile import PowerLawSpeedup, ServiceProfile
from repro.sim.rng import RandomStreams


@pytest.fixture
def rng():
    return RandomStreams(42).stream("demand")


class TestDemandDistributions:
    def test_deterministic_sample(self, rng):
        demand = DeterministicDemand(1.5)
        assert demand.sample(rng) == 1.5
        assert demand.mean == 1.5

    def test_deterministic_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            DeterministicDemand(0.0)

    def test_exponential_mean(self, rng):
        demand = ExponentialDemand(0.5)
        n = 20000
        mean = sum(demand.sample(rng) for _ in range(n)) / n
        assert mean == pytest.approx(0.5, rel=0.05)
        assert demand.mean == 0.5

    def test_exponential_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            ExponentialDemand(-1.0)

    def test_lognormal_mean(self, rng):
        demand = LogNormalDemand(0.8, sigma=0.6)
        n = 40000
        mean = sum(demand.sample(rng) for _ in range(n)) / n
        assert mean == pytest.approx(0.8, rel=0.05)

    @pytest.mark.parametrize(
        "mean, sigma", [(0.8, 0.6), (1.7, 0.25), (0.05, 1.3), (2.0, 0.0)]
    )
    def test_lognormal_sample_matches_the_per_draw_reference(self, mean, sigma):
        # ``sample`` solves mu once; every draw must still be the exact
        # float ``SeededStream.lognormal_mean`` returns on a twin stream.
        demand = LogNormalDemand(mean, sigma=sigma)
        ours = RandomStreams(7).stream("demand")
        reference = RandomStreams(7).stream("demand")
        for _ in range(2000):
            assert demand.sample(ours) == reference.lognormal_mean(mean, sigma)
        assert ours.getstate() == reference.getstate()

    def test_lognormal_samples_positive(self, rng):
        demand = LogNormalDemand(0.3, sigma=1.0)
        assert all(demand.sample(rng) > 0 for _ in range(1000))

    def test_lognormal_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            LogNormalDemand(0.0)
        with pytest.raises(ConfigurationError):
            LogNormalDemand(1.0, sigma=-0.1)


class TestPowerLawSpeedup:
    def test_normalized_time_is_one_at_floor(self):
        curve = PowerLawSpeedup(1.2, beta=1.0)
        assert curve.normalized_time(1.2) == pytest.approx(1.0)

    def test_linear_beta_scales_inversely_with_frequency(self):
        curve = PowerLawSpeedup(1.2, beta=1.0)
        assert curve.normalized_time(2.4) == pytest.approx(0.5)

    def test_sublinear_beta_benefits_less(self):
        compute_bound = PowerLawSpeedup(1.2, beta=1.0)
        memory_bound = PowerLawSpeedup(1.2, beta=0.5)
        assert memory_bound.normalized_time(2.4) > compute_bound.normalized_time(2.4)

    def test_zero_beta_means_no_speedup(self):
        curve = PowerLawSpeedup(1.2, beta=0.0)
        assert curve.normalized_time(2.4) == pytest.approx(1.0)

    def test_speedup_is_reciprocal(self):
        curve = PowerLawSpeedup(1.2, beta=0.8)
        assert curve.speedup(2.0) == pytest.approx(1.0 / curve.normalized_time(2.0))

    def test_alpha_between_levels(self):
        curve = PowerLawSpeedup(1.2, beta=1.0)
        # Boosting 1.8 -> 2.4 scales execution time by 0.75.
        assert curve.alpha(1.8, 2.4) == pytest.approx(0.75)

    def test_alpha_of_no_boost_is_one(self):
        curve = PowerLawSpeedup(1.2, beta=1.0)
        assert curve.alpha(1.8, 1.8) == pytest.approx(1.0)

    def test_below_floor_rejected(self):
        curve = PowerLawSpeedup(1.2, beta=1.0)
        with pytest.raises(FrequencyError):
            curve.normalized_time(1.0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerLawSpeedup(0.0)
        with pytest.raises(ConfigurationError):
            PowerLawSpeedup(1.2, beta=2.0)


class TestServiceProfile:
    def make(self, beta=1.0) -> ServiceProfile:
        return ServiceProfile(
            "QA", DeterministicDemand(1.0), PowerLawSpeedup(1.2, beta=beta)
        )

    def test_serving_time_scales_demand(self):
        profile = self.make()
        assert profile.serving_time(2.0, 1.2) == pytest.approx(2.0)
        assert profile.serving_time(2.0, 2.4) == pytest.approx(1.0)

    def test_mean_serving_time(self):
        profile = self.make()
        assert profile.mean_serving_time(2.4) == pytest.approx(0.5)

    def test_service_rate(self):
        profile = self.make()
        assert profile.service_rate(1.2) == pytest.approx(1.0)
        assert profile.service_rate(2.4) == pytest.approx(2.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make().serving_time(-1.0, 1.8)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceProfile("", DeterministicDemand(1.0), PowerLawSpeedup(1.2))
