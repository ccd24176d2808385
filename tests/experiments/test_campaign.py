"""Unit tests for the evaluation campaign driver and the figure runner."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.campaign import default_registry, run_campaign, run_figures
from repro.experiments.figures import Figure
from repro.scenario import ScenarioSpec


def tiny_cell(seed: int) -> ScenarioSpec:
    return ScenarioSpec.latency("sirius", "static", ("constant", 1.0), 60.0, seed=seed)


def tiny_figure(label: str, *seeds: int) -> Figure:
    """A fast figure whose render lists its runs' completed-query counts."""
    return Figure(
        cells=tuple(tiny_cell(seed) for seed in seeds),
        reduce=lambda results: [run.queries_completed for run in results],
        render=lambda counts: f"RENDER {label} {counts}",
    )


def tiny_registry():
    """A fast stand-in registry: two figures sharing the seed-2 cell."""
    return {"figA": tiny_figure("A", 1, 2), "figB": tiny_figure("B", 2, 3)}


@pytest.fixture
def tiny(monkeypatch):
    """Swap the campaign's registry for :func:`tiny_registry`."""
    import repro.experiments.campaign as campaign_module

    monkeypatch.setattr(campaign_module, "default_registry", tiny_registry)


class TestCampaign:
    def test_runs_every_artefact(self, tiny):
        result = run_campaign()
        assert result.artefacts == ["figA", "figB"]
        assert result.render("figA").startswith("RENDER A [")

    def test_unknown_artefact_rejected(self, tiny):
        result = run_campaign()
        with pytest.raises(ExperimentError):
            result.render("nope")

    def test_archives_to_directory(self, tmp_path, tiny):
        result = run_campaign(output_dir=tmp_path / "out")
        assert result.output_dir is not None
        assert (result.output_dir / "figA.txt").read_text() == (
            result.render("figA") + "\n"
        )
        report = (result.output_dir / "report.md").read_text()
        assert "## figA" in report and "RENDER B" in report

    def test_combined_report_contains_everything(self, tiny):
        result = run_campaign()
        report = result.combined_report()
        assert report.startswith("# PowerChief reproduction")
        assert "RENDER A" in report and "RENDER B" in report
        assert "3 cells: 0 cached, 3 computed" in report

    def test_default_registry_covers_the_evaluation(self):
        registry = default_registry()
        assert set(registry) == {
            "fig02",
            "fig04",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "table1",
            "table4",
        }

    def test_default_registry_shares_runs_between_figures(self):
        registry = default_registry()
        digests = [cell.digest() for figure in registry.values() for cell in figure.cells]
        assert (len(digests), len(set(digests))) == (83, 71)
        fig04 = {cell.digest() for cell in registry["fig04"].cells}
        fig10 = {cell.digest() for cell in registry["fig10"].cells}
        assert len(fig04) == 12 and fig04 <= fig10

    def test_default_static_tables_render_without_simulation(self):
        registry = default_registry()
        for name, title in (("table1", "Table 1"), ("table4", "Table 4")):
            table = registry[name]
            assert table.cells == ()
            assert title in table.render(table.reduce([]))

    def test_default_registry_runs_through_the_engine(self, tiny):
        result = run_campaign()
        report = result.report
        assert [outcome.spec for outcome in report.outcomes] == [
            tiny_cell(1),
            tiny_cell(2),
            tiny_cell(3),
        ]
        assert report.computed == 3
        assert report.cache_hits == 0
        assert [outcome.source for outcome in report.outcomes] == ["serial"] * 3
        timing = report.format_timing()
        assert "Campaign execution timing" in timing
        assert "3 cells: 0 cached, 3 computed" in timing

    def test_warm_cache_recomputes_nothing(self, tmp_path, tiny):
        cold = run_campaign(cache_dir=tmp_path / "cache")
        assert cold.report.computed == 3 and cold.report.cache_hits == 0
        warm = run_campaign(cache_dir=tmp_path / "cache")
        assert warm.report.computed == 0
        assert warm.report.cache_hits == 3
        assert warm.renders == cold.renders
        assert [outcome.source for outcome in warm.report.outcomes] == ["cache"] * 3

    def test_changed_figure_recomputes_only_its_changed_cells(
        self, tmp_path, monkeypatch
    ):
        import repro.experiments.campaign as campaign_module

        cache = tmp_path / "cache"
        monkeypatch.setattr(campaign_module, "default_registry", tiny_registry)
        cold = run_campaign(cache_dir=cache)

        def changed_registry():
            return {"figA": tiny_figure("A2", 1, 4), "figB": tiny_figure("B", 2, 3)}

        monkeypatch.setattr(campaign_module, "default_registry", changed_registry)
        warm = run_campaign(cache_dir=cache)
        sources = {outcome.spec: outcome.source for outcome in warm.report.outcomes}
        assert sources == {
            tiny_cell(1): "cache",
            tiny_cell(4): "serial",
            tiny_cell(2): "cache",
            tiny_cell(3): "cache",
        }
        assert warm.render("figA") == run_campaign().render("figA")
        assert warm.render("figA").startswith("RENDER A2 [")
        assert warm.render("figA") != cold.render("figA")
        assert warm.render("figB") == cold.render("figB")

    def test_parallel_campaign_matches_serial(self, tiny):
        serial = run_campaign(max_workers=1)
        pooled = run_campaign(max_workers=2)
        assert pooled.renders == serial.renders

    def test_cli_campaign_command(self, tmp_path, capsys, tiny):
        from repro.cli import main

        code = main(["campaign", "--output", str(tmp_path / "archive")])
        assert code == 0
        out = capsys.readouterr().out
        assert "RENDER A" in out
        assert "campaign archived" in out

    def test_cli_campaign_workers_and_cache(self, tmp_path, capsys, tiny):
        from repro.cli import main

        cache = tmp_path / "cache"
        for expected in ("0 cached, 3 computed", "3 cached, 0 computed"):
            code = main(
                ["campaign", "--workers", "2", "--cache-dir", str(cache)]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "RENDER A" in out
            assert expected in out


class TestRunFigures:
    def test_shared_cell_computes_once(self):
        left, right = tiny_figure("L", 5, 6), tiny_figure("R", 6)
        (left_counts, right_counts), report = run_figures([left, right])
        assert [outcome.spec for outcome in report.outcomes] == [
            tiny_cell(5),
            tiny_cell(6),
        ]
        assert right_counts == left_counts[1:]

    def test_reducers_see_results_in_their_own_cell_order(self):
        forward, backward = tiny_figure("F", 7, 8), tiny_figure("B", 8, 7)
        (counts, reversed_counts), _ = run_figures([forward, backward])
        assert reversed_counts == counts[::-1]
