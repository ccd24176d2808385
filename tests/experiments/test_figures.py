"""Unit tests for the per-figure definitions (structure, not shapes).

Shapes are asserted by the benchmarks at full duration; these tests run
short figures through the figure runner and verify the result structures
and renderings.
"""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.campaign import run_figures
from repro.experiments.figures import (
    Figure,
    fig02,
    fig04,
    fig10,
    fig11,
    fig13,
    fig14,
    render_fig02,
    render_fig04,
    render_fig11,
    render_fig13,
    render_improvement_figure,
    render_table1,
    render_table4,
)

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
        text = render_fig13(result)
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
