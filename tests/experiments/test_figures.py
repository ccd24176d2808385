"""Unit tests for the per-figure definitions (structure, not shapes).

The paper's shapes are checked at full size in
``tests/integration/test_paper_claims.py``; these tests run short
figures through the figure runner and verify the result structures and
renderings.
"""

from __future__ import annotations

import pytest

from repro.cluster.frequency import HASWELL_LADDER
from repro.cluster.power import DEFAULT_POWER_MODEL
from repro.core.oracle import best_static_allocation
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.campaign import run_figures
from repro.experiments.figures import (
    TABLE4_SYSTEMS,
    Figure,
    ablations,
    fig02,
    fig04,
    fig10,
    fig11,
    fig13,
    fig14,
    render_fig02,
    render_fig04,
    render_fig11,
    render_improvement_figure,
    render_qos_figure,
    render_table1,
    render_table4,
    render_variants,
)
from repro.scenario import ScenarioSpec, StackBuilder
from repro.scenario.config import TABLE2_CONTROLLER_CONFIG
from repro.workloads.sirius import sirius_load_levels

SHORT = 200.0
SEEDS = (3,)


def run(figure: Figure):
    """One figure's result, through the runner every caller uses."""
    (result,), _ = run_figures([figure])
    return result


class TestFig02:
    @pytest.fixture(scope="class")
    def result(self):
        return run(fig02.figure(duration_s=SHORT, seeds=SEEDS))

    def test_six_bars(self, result):
        assert len(result.bars) == 6
        assert {bar.technique for bar in result.bars} == {"frequency", "instance"}

    def test_bar_lookup(self, result):
        bar = result.bar("QA", "frequency")
        assert bar.stage == "QA"
        with pytest.raises(ExperimentError):
            result.bar("QA", "warp")

    def test_allocations_fit_budget(self, result):
        from repro.cluster.frequency import HASWELL_LADDER
        from repro.cluster.power import DEFAULT_POWER_MODEL

        for bar in result.bars:
            watts = sum(
                alloc.count
                * DEFAULT_POWER_MODEL.power_of_level(HASWELL_LADDER, alloc.level)
                for alloc in bar.allocation.values()
            )
            assert watts <= 13.56 + 1e-9

    def test_render(self, result):
        text = render_fig02(result)
        assert "Figure 2" in text
        assert "Boost QA only" in text


class TestFig04:
    def test_cells_and_render(self):
        result = run(fig04.figure(duration_s=SHORT, seeds=SEEDS))
        assert len(result.cells) == 4
        text = render_fig04(result)
        assert "(low load)" in text and "(high load)" in text


class TestFig10Family:
    @pytest.fixture(scope="class")
    def result(self):
        return run(fig10.figure(duration_s=SHORT, seeds=SEEDS))

    def test_grid_is_complete(self, result):
        assert len(result.cells) == 9  # 3 policies x 3 loads
        for policy in ("freq-boost", "inst-boost", "powerchief"):
            for load in ("low", "medium", "high"):
                cell = result.cell(policy, load)
                assert cell.avg_improvement > 0.0

    def test_average_improvement(self, result):
        avg, p99 = result.average_improvement("powerchief")
        cells = [c for c in result.cells if c.policy == "powerchief"]
        assert avg == pytest.approx(
            sum(c.avg_improvement for c in cells) / len(cells)
        )
        assert p99 > 0.0

    def test_unknown_lookups_raise(self, result):
        with pytest.raises(ExperimentError):
            result.cell("nosuch", "low")
        with pytest.raises(ExperimentError):
            result.average_improvement("nosuch")

    def test_render(self, result):
        text = render_improvement_figure(result)
        assert "Figure 10" in text
        assert "across-load averages" in text


class TestFig11:
    def test_runs_and_renders(self):
        result = run(fig11.figure(duration_s=300.0, seed=3, sample_interval_s=50.0))
        assert {run.policy for run in result.runs} == {
            "freq-boost",
            "inst-boost",
            "powerchief",
        }
        assert result.launches("freq-boost") == 0
        text = render_fig11(result, every_nth_sample=2)
        assert "Figure 11" in text
        with pytest.raises(ExperimentError):
            result.run_for("nosuch")


class TestQosFigures:
    def test_fig13_structure(self):
        result = run(fig13.figure(duration_s=150.0, seed=3))
        assert result.run_for("baseline").average_power_fraction == pytest.approx(1.0)
        assert 0.0 <= result.saving_over_baseline("powerchief") <= 1.0
        text = render_qos_figure(result)
        assert "Figure 13" in text
        assert "saving vs baseline" in text

    def test_fig14_structure(self):
        result = run(fig14.figure(duration_s=80.0, seed=3))
        assert result.setup.qos_target_s == pytest.approx(0.25)
        assert result.run_for("powerchief").qos_samples


class TestStaticTables:
    def test_table1_lists_all_metrics(self):
        text = render_table1()
        for token in ("Average queuing time", "99th processing delay", "L_i * q_i + s_i"):
            assert token in text

    def test_table4_matrix(self):
        text = render_table4()
        assert "PowerChief" in text and "Pegasus" in text
        # PowerChief's row is all-yes.
        powerchief_line = next(
            line for line in text.splitlines() if line.startswith("PowerChief")
        )
        assert powerchief_line.count("yes") == 5

    def test_a_run_exhibits_powerchiefs_table4_capabilities(self):
        row = next(system for system in TABLE4_SYSTEMS if system.system == "PowerChief")
        assert all(
            (
                row.multi_stage_awareness,
                row.power_constraint,
                row.commodity_hardware,
                row.runtime_system,
                row.power_management,
            )
        )
        builder = StackBuilder(
            ScenarioSpec.latency(
                "sirius", "powerchief", ("constant", sirius_load_levels().high_qps),
                200.0, seed=3, controller=TABLE2_CONTROLLER_CONFIG,
            )
        )
        builder.execute()
        app, controller = builder.application, builder.controller
        # Multi-stage awareness: per-stage pools managed independently.
        assert len(app.stages) == 3
        # Power constraint: the budget held throughout.
        builder.budget.assert_within()
        # Runtime system: the control loop ticked.
        assert controller.ticks >= 7
        # Power management: DVFS and launch actions were taken.
        assert controller.actions
        # Commodity hardware: only the stock DVFS ladder was used.
        for instance in app.running_instances():
            HASWELL_LADDER.validate_level(instance.level)
        # One prior system per distinguishing gap.
        assert sum(1 for system in TABLE4_SYSTEMS if system.multi_stage_awareness) == 3
        assert sum(1 for system in TABLE4_SYSTEMS if system.power_constraint) == 3


class TestAblations:
    def test_variants_keep_cell_order_and_render(self):
        result = run(ablations.sharding(duration_s=60.0))
        assert list(result.runs) == ["1 shard, 1x load", "4 shards, 4x load"]
        assert result.completed("4 shards, 4x load") > result.completed("1 shard, 1x load")
        text = render_variants(result)
        assert text.splitlines()[1].startswith("Sharded deployment")
        assert "4 shards, 4x load" in text
        with pytest.raises(ExperimentError):
            result.mean("8 shards")

    def test_a_variant_averages_its_seeds(self):
        result = run(ablations.metric(duration_s=60.0, seeds=(3, 5)))
        runs = result.runs["powerchief"]
        assert len(runs) == 2 and len(result.runs) == len(ablations.METRICS)
        assert result.mean("powerchief") == pytest.approx(
            (runs[0].latency.mean + runs[1].latency.mean) / 2
        )

    def test_every_swept_budget_funds_each_stage(self):
        for budget in ablations.BUDGETS:
            allocation = ablations.equal_split_allocation(budget)
            draw = sum(
                DEFAULT_POWER_MODEL.power_of_level(HASWELL_LADDER, entry.level)
                for entry in allocation.values()
            )
            assert draw <= budget + 1e-9
        with pytest.raises(ConfigurationError, match="funds no ladder level"):
            ablations.equal_split_allocation(1.0)

    def test_oracle_plans_are_searched_once(self, monkeypatch):
        searches = []

        def counted(*args, **kwargs):
            searches.append(kwargs["rate_qps"])
            return best_static_allocation(*args, **kwargs)

        ablations._oracle_plans.cache_clear()
        monkeypatch.setattr(ablations, "best_static_allocation", counted)
        first, second = ablations.oracle(), ablations.oracle(duration_s=60.0)
        assert len(searches) == 2
        assert first.cells[0].allocation == second.cells[0].allocation
        ablations._oracle_plans.cache_clear()
