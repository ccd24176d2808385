"""Tests for the CLI figures command and registry plumbing."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli as cli_module
from repro.cli import main
from repro.experiments.figures import static_table


@pytest.fixture
def tiny_registry(monkeypatch):
    """Two real artefact names whose figures render a fixed text."""
    rendered = {
        "table1": static_table(lambda: "X RENDER"),
        "table4": static_table(lambda: "Y RENDER"),
    }
    monkeypatch.setattr(cli_module, "default_registry", lambda: rendered)
    return rendered


class TestFiguresCommand:
    def test_single_figure(self, tiny_registry, capsys):
        assert main(["figures", "table1"]) == 0
        out = capsys.readouterr().out
        assert "X RENDER" in out
        assert "Y RENDER" not in out

    def test_all_runs_every_figure_in_order(self, tiny_registry, capsys):
        assert main(["figures", "all"]) == 0
        out = capsys.readouterr().out
        assert out.index("X RENDER") < out.index("Y RENDER")

    def test_choices_are_the_registry(self, capsys):
        assert set(cli_module.default_registry()) == set(cli_module.ARTEFACTS)
        with pytest.raises(SystemExit) as excinfo:
            main(["figures", "fig99"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'fig99'" in err
        assert all(repr(name) in err for name in cli_module.ARTEFACTS)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "PowerChief" in capsys.readouterr().out


@pytest.mark.parametrize(
    "call", ["build_parser()", "main(['serve', '--help'])"], ids=["parser", "serve-help"]
)
def test_start_up_imports_no_figure_module(call):
    """The artefact names come from a table, so building the parser (every
    command does) and ``repro serve --help`` build no figure."""
    script = (
        "import contextlib, io, sys\n"
        "from repro.cli import build_parser, main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.suppress(SystemExit):\n"
        f"    {call}\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.experiments.figures')))\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
