"""Tests for the CLI figures command and registry plumbing."""

from __future__ import annotations

import pytest

import repro.cli as cli_module
from repro.cli import main
from repro.experiments.figures import static_table


@pytest.fixture
def tiny_registry(monkeypatch):
    rendered = {
        "figX": static_table(lambda: "X RENDER"),
        "figY": static_table(lambda: "Y RENDER"),
    }
    monkeypatch.setattr(cli_module, "default_registry", lambda: rendered)
    return rendered


class TestFiguresCommand:
    def test_single_figure(self, tiny_registry, capsys):
        assert main(["figures", "figX"]) == 0
        out = capsys.readouterr().out
        assert "X RENDER" in out
        assert "Y RENDER" not in out

    def test_all_runs_every_figure_in_order(self, tiny_registry, capsys):
        assert main(["figures", "all"]) == 0
        out = capsys.readouterr().out
        assert out.index("X RENDER") < out.index("Y RENDER")

    def test_registry_covers_the_whole_evaluation(self):
        registry = cli_module.default_registry()
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

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "PowerChief" in capsys.readouterr().out
