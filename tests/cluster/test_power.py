"""Unit tests for the core power model and its calibration."""

from __future__ import annotations

import pytest

from repro.errors import ClusterError, FrequencyError
from repro.cluster.frequency import HASWELL_LADDER
from repro.cluster.power import DEFAULT_POWER_MODEL, CubicPowerModel


class TestCalibration:
    """The DESIGN.md calibration facts the evaluation depends on."""

    def test_mid_ladder_core_is_4_52_watts(self):
        # Table 2's 13.56 W budget = 3 instances at 1.8 GHz.
        assert DEFAULT_POWER_MODEL.power(1.8) == pytest.approx(4.52, abs=1e-9)

    def test_table2_budget_is_three_mid_ladder_cores(self):
        assert 3 * DEFAULT_POWER_MODEL.power(1.8) == pytest.approx(13.56)

    def test_eight_floor_cores_fit_thirteen_point_five_six_watts(self):
        # The Figure-11(b) lock-in: 8 instances at 1.2 GHz just fit ...
        assert 8 * DEFAULT_POWER_MODEL.power(1.2) <= 13.56

    def test_nine_floor_cores_do_not_fit(self):
        # ... and a 9th cannot be funded even at the lowest level.
        assert 9 * DEFAULT_POWER_MODEL.power(1.2) > 13.56

    def test_power_strictly_increases_with_frequency(self):
        powers = [DEFAULT_POWER_MODEL.power(freq) for freq in HASWELL_LADDER]
        assert powers == sorted(powers)
        assert len(set(powers)) == len(powers)


class TestCubicModel:
    def test_explicit_coefficients(self):
        model = CubicPowerModel(static_watts=1.0, dynamic_coeff=2.0)
        assert model.power(2.0) == pytest.approx(1.0 + 2.0 * 8.0)

    def test_negative_static_rejected(self):
        with pytest.raises(ClusterError):
            CubicPowerModel(static_watts=-0.1)

    def test_nonpositive_coeff_rejected(self):
        with pytest.raises(ClusterError):
            CubicPowerModel(dynamic_coeff=0.0)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(FrequencyError):
            DEFAULT_POWER_MODEL.power(0.0)


class TestLadderHelpers:
    def test_power_of_level(self):
        level = HASWELL_LADDER.level_of(1.8)
        assert DEFAULT_POWER_MODEL.power_of_level(
            HASWELL_LADDER, level
        ) == pytest.approx(4.52)

    def test_max_level_within_exact_budget(self):
        watts = DEFAULT_POWER_MODEL.power(1.8)
        level = DEFAULT_POWER_MODEL.max_level_within(HASWELL_LADDER, watts)
        assert level == HASWELL_LADDER.level_of(1.8)

    def test_max_level_within_between_levels(self):
        watts = DEFAULT_POWER_MODEL.power(1.8) + 0.01
        level = DEFAULT_POWER_MODEL.max_level_within(HASWELL_LADDER, watts)
        assert level == HASWELL_LADDER.level_of(1.8)

    def test_max_level_within_huge_budget_is_top(self):
        level = DEFAULT_POWER_MODEL.max_level_within(HASWELL_LADDER, 1000.0)
        assert level == HASWELL_LADDER.max_level

    def test_max_level_within_tiny_budget_is_none(self):
        assert DEFAULT_POWER_MODEL.max_level_within(HASWELL_LADDER, 0.1) is None

    def test_recyclable_from_floor_is_zero(self):
        assert DEFAULT_POWER_MODEL.recyclable(
            HASWELL_LADDER, HASWELL_LADDER.min_level
        ) == pytest.approx(0.0)

    def test_recyclable_from_top(self):
        expected = DEFAULT_POWER_MODEL.power(2.4) - DEFAULT_POWER_MODEL.power(1.2)
        assert DEFAULT_POWER_MODEL.recyclable(
            HASWELL_LADDER, HASWELL_LADDER.max_level
        ) == pytest.approx(expected)
