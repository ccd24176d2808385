"""Unit tests for the evaluation campaign driver."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.campaign import default_registry, run_campaign


def tiny_registry():
    """A fast stand-in registry so tests don't run the full evaluation."""
    return {
        "figA": lambda: "RENDER A",
        "figB": lambda: "RENDER B",
    }


@pytest.fixture
def tiny(monkeypatch):
    """Swap the campaign's registry for :func:`tiny_registry`."""
    import repro.experiments.campaign as campaign_module

    monkeypatch.setattr(campaign_module, "default_registry", tiny_registry)


class TestCampaign:
    def test_runs_every_artefact(self, tiny):
        result = run_campaign()
        assert result.artefacts == ["figA", "figB"]
        assert result.render("figA") == "RENDER A"

    def test_unknown_artefact_rejected(self, tiny):
        result = run_campaign()
        with pytest.raises(ExperimentError):
            result.render("nope")

    def test_archives_to_directory(self, tmp_path, tiny):
        result = run_campaign(output_dir=tmp_path / "out")
        assert result.output_dir is not None
        assert (result.output_dir / "figA.txt").read_text() == "RENDER A\n"
        report = (result.output_dir / "report.md").read_text()
        assert "## figA" in report and "RENDER B" in report

    def test_combined_report_contains_everything(self, tiny):
        result = run_campaign()
        report = result.combined_report()
        assert report.startswith("# PowerChief reproduction")
        assert "RENDER A" in report and "RENDER B" in report

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

    def test_default_static_tables_render_without_simulation(self):
        registry = default_registry()
        assert "Table 1" in registry["table1"]()
        assert "Table 4" in registry["table4"]()

    def test_default_registry_runs_through_the_engine(self, tiny):
        result = run_campaign()
        assert result.artefacts == ["figA", "figB"]
        assert result.computed == 2
        assert result.cache_hits == 0
        assert [source for _, _, source in result.timings] == ["serial"] * 2
        assert "Campaign timing" in result.timing_report()
        assert "2 artefacts: 0 cached, 2 computed" in result.timing_report()

    def test_warm_cache_recomputes_nothing(self, tmp_path, tiny):
        cold = run_campaign(cache_dir=tmp_path / "cache")
        assert cold.computed == 2 and cold.cache_hits == 0
        warm = run_campaign(cache_dir=tmp_path / "cache")
        assert warm.computed == 0
        assert warm.cache_hits == 2
        assert warm.renders == cold.renders
        assert [source for _, _, source in warm.timings] == ["cache"] * 2

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
        for expected_hits in (0, 2):
            code = main(
                ["campaign", "--workers", "2", "--cache-dir", str(cache)]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "RENDER A" in out
            assert f"{expected_hits} cached" in out
