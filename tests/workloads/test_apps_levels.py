"""Unit tests for the application pipelines and load levels."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.scenario import ScenarioSpec, StackBuilder
from repro.service.stage import StageKind
from repro.workloads.levels import LoadLevel, load_levels_for, saturation_rate
from repro.workloads.nlp import NLP_STAGES, nlp_profiles
from repro.workloads.sirius import SIRIUS_STAGES, sirius_profiles
from repro.workloads.websearch import WEBSEARCH_QOS_TARGET_S, websearch_profiles

from tests.conftest import make_profile


def table2_app(app: str):
    """The Table-2 deployment of ``app``, as the scenario layer builds it."""
    spec = ScenarioSpec.latency(app, "static", ("constant", 1.0), 10.0)
    return StackBuilder(spec).build().application


def table3_app(app: str):
    """The Table-3 deployment of ``app``, as the scenario layer builds it."""
    spec = ScenarioSpec.qos(app, "baseline", 1.0, 10.0)
    return StackBuilder(spec).build().application


class TestSaturationAndLevels:
    def test_saturation_is_slowest_stage(self):
        profiles = [make_profile("A", mean=0.5), make_profile("B", mean=2.0)]
        # At the floor, B serves 0.5 qps: the pipeline bottleneck.
        assert saturation_rate(profiles, 1.2) == pytest.approx(0.5)

    def test_saturation_scales_with_frequency(self):
        profiles = [make_profile("A", mean=1.0)]
        assert saturation_rate(profiles, 2.4) == pytest.approx(
            2.0 * saturation_rate(profiles, 1.2)
        )

    def test_saturation_scales_with_instances(self):
        profiles = [make_profile("A", mean=1.0)]
        assert saturation_rate(profiles, 1.2, instances_per_stage=3) == pytest.approx(
            3.0
        )

    def test_load_levels_ordering(self):
        levels = load_levels_for([make_profile("A", mean=1.0)], 1.8)
        assert levels.low_qps < levels.medium_qps < levels.high_qps

    def test_high_load_exceeds_saturation(self):
        profiles = [make_profile("A", mean=1.0)]
        levels = load_levels_for(profiles, 1.8)
        assert levels.high_qps > saturation_rate(profiles, 1.8)

    def test_rate_lookup_by_level(self):
        levels = load_levels_for([make_profile("A", mean=1.0)], 1.8)
        assert levels.rate(LoadLevel.LOW) == levels.low_qps
        assert levels.rate(LoadLevel.MEDIUM) == levels.medium_qps
        assert levels.rate(LoadLevel.HIGH) == levels.high_qps

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ConfigurationError):
            load_levels_for(
                [make_profile("A")], 1.8, low_fraction=0.9, medium_fraction=0.5
            )

    def test_empty_profiles_rejected(self):
        with pytest.raises(ConfigurationError):
            saturation_rate([], 1.8)


class TestSiriusWorkload:
    def test_stage_pipeline_matches_figure8(self):
        app = table2_app("sirius")
        assert tuple(app.stage_names()) == SIRIUS_STAGES == ("ASR", "IMM", "QA")

    def test_table2_deployment_is_one_instance_per_stage(self):
        app = table2_app("sirius")
        assert all(stage.instance_count == 1 for stage in app.stages)

    def test_table2_deployment_draws_exactly_the_budget(self):
        app = table2_app("sirius")
        assert app.total_power() == pytest.approx(13.56)

    def test_qa_is_the_heaviest_stage(self):
        profiles = {p.name: p for p in sirius_profiles()}
        assert profiles["QA"].demand.mean > profiles["ASR"].demand.mean
        assert profiles["ASR"].demand.mean > profiles["IMM"].demand.mean

    def test_imm_is_memory_bound(self):
        profiles = {p.name: p for p in sirius_profiles()}
        # IMM gains less from a 2x clock than the compute-bound QA.
        assert profiles["IMM"].speedup.normalized_time(2.4) > profiles[
            "QA"
        ].speedup.normalized_time(2.4)

    def test_table3_deployment(self):
        # 4 ASR + 2 IMM + 5 QA (Table 3) needs 11 cores.
        app = table3_app("sirius")
        counts = {stage.name: stage.instance_count for stage in app.stages}
        assert counts == {"ASR": 4, "IMM": 2, "QA": 5}


class TestNlpWorkload:
    def test_stage_pipeline_matches_figure9(self):
        app = table2_app("nlp")
        assert tuple(app.stage_names()) == NLP_STAGES == ("POS", "PSG", "SRL")

    def test_srl_dominates(self):
        profiles = {p.name: p for p in nlp_profiles()}
        assert profiles["SRL"].demand.mean > profiles["PSG"].demand.mean
        assert profiles["PSG"].demand.mean > profiles["POS"].demand.mean


class TestWebSearchWorkload:
    def test_table3_topology(self):
        app = table3_app("websearch")
        counts = {stage.name: stage.instance_count for stage in app.stages}
        assert counts == {"LEAF": 10, "AGG": 1}

    def test_leaf_tier_is_scatter_gather(self):
        app = table3_app("websearch")
        assert app.stage("LEAF").kind is StageKind.SCATTER_GATHER
        assert app.stage("AGG").kind is StageKind.PIPELINE

    def test_qos_target_is_250ms(self):
        assert WEBSEARCH_QOS_TARGET_S == pytest.approx(0.250)

    def test_leaf_demand_is_total_across_pool(self):
        profiles = {p.name: p for p in websearch_profiles()}
        # 1.0s of total leaf work over 10 leaves = 0.1s per shard at floor.
        assert profiles["LEAF"].demand.mean == pytest.approx(1.0)
