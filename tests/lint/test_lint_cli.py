"""The ``repro lint`` CLI contract: exit codes, JSON output, self-clean.

Exit codes are load-bearing for CI: 0 means the tree is clean, 1 means
findings, 2 means the linter itself failed — and a crash must never
read as a clean pass.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import default_registry, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = REPO_ROOT / "src"

EXPECTED_RULES = {
    "wall-clock",
    "unseeded-random",
    "unit-mismatch",
    "pickle-fanout",
    "metric-name",
    "metric-duplicate",
    "dataclass-mutable-default",
    "dataclass-frozen-shared",
    "scenario-bypass",
    # Flow-aware families (PR 8).
    "unit-flow",
    "resource-pairing",
    "unordered-iteration",
    "rng-escape",
    "observer-purity",
}

#: One wall-clock read and one unit mismatch, both in scope under core/.
TWO_RULE_SNIPPET = """\
import time


def f(power_watts, freq_ghz):
    started = time.time()
    return power_watts + freq_ghz
"""


def write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


class TestRegistry:
    def test_all_rules_are_registered(self):
        assert set(default_registry().rule_ids()) == EXPECTED_RULES

    def test_list_rules_exits_zero_and_names_every_rule(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in EXPECTED_RULES:
            assert rule in out


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write(tmp_path / "core" / "ok.py", "X = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        write(
            tmp_path / "core" / "bad.py",
            """\
            def total(power_watts, freq_ghz):
                return power_watts + freq_ghz
            """,
        )
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "unit-mismatch" in out
        assert "bad.py:2:" in out

    def test_missing_target_is_a_crash_not_a_pass(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "does-not-exist")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_selection_is_a_crash(self, capsys):
        assert main(["lint", "--select", "no-such-rule", "src"]) == 2


class TestJsonFormat:
    def test_json_payload_shape(self, tmp_path, capsys):
        write(
            tmp_path / "core" / "bad.py",
            """\
            def headroom(power_watts, freq_ghz):
                return power_watts - freq_ghz
            """,
        )
        assert main(["lint", "--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        assert payload["suppressed"] == 0
        (finding,) = payload["findings"]
        assert finding["rule"] == "unit-mismatch"
        assert finding["line"] == 2
        assert finding["package_path"] == "core/bad.py"
        assert finding["hint"]

    def test_json_clean_tree(self, tmp_path, capsys):
        write(tmp_path / "core" / "ok.py", "X = 1\n")
        assert main(["lint", "--format", "json", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []


class TestSelect:
    def test_select_limits_the_rule_set(self, tmp_path, capsys):
        write(tmp_path / "core" / "bad.py", TWO_RULE_SNIPPET)
        assert main(["lint", "--select", "wall-clock", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "wall-clock" in out
        assert "unit-mismatch" not in out

    def test_empty_select_exits_two(self, capsys):
        assert main(["lint", "--select", "", "src"]) == 2
        assert "--select" in capsys.readouterr().err

    def test_whitespace_select_exits_two(self, capsys):
        assert main(["lint", "--select", " , ,", "src"]) == 2
        assert "selected no rules" in capsys.readouterr().err

    def test_comma_separated_select_runs_every_named_rule(
        self, tmp_path, capsys
    ):
        write(tmp_path / "core" / "bad.py", TWO_RULE_SNIPPET)
        assert (
            main(
                [
                    "lint",
                    "--select",
                    "wall-clock, unit-mismatch",
                    str(tmp_path),
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "wall-clock" in out
        assert "unit-mismatch" in out


class TestPackageTargets:
    """A target inside the ``repro`` package keeps its package paths, so
    scoped rules and scope exemptions behave as for a scan of ``src``."""

    @pytest.fixture
    def tree(self, tmp_path):
        package = tmp_path / "src" / "repro"
        write(package / "__init__.py", "")
        write(package / "sim" / "__init__.py", "")
        write(
            package / "sim" / "bad.py",
            """\
            import time


            def stamp():
                return time.time()
            """,
        )
        write(
            package / "scenario" / "assemble.py",
            """\
            from repro.cluster.machine import Machine


            def build(sim):
                return Machine(sim, n_cores=16)
            """,
        )
        return tmp_path

    @pytest.mark.parametrize(
        "target", ["src", "src/repro/sim", "src/repro/sim/bad.py"]
    )
    def test_scoped_rule_fires_for_every_target(self, tree, target):
        report = lint_paths([tree / target], select=["wall-clock"])
        assert [(f.rule, f.package_path, f.line) for f in report.findings] == [
            ("wall-clock", "sim/bad.py", 5)
        ]

    def test_scenario_exemption_holds_for_a_subpackage_target(self, tree):
        report = lint_paths(
            [tree / "src" / "repro" / "scenario"], select=["scenario-bypass"]
        )
        assert report.files_scanned == 1
        assert report.clean


class TestSelfClean:
    def test_shipped_tree_has_zero_unsuppressed_findings(self):
        report = lint_paths([REPO_SRC])
        assert report.files_scanned > 50
        details = "\n".join(f.format() for f in report.findings)
        assert report.clean, f"repro lint found violations:\n{details}"

    def test_tests_tree_has_zero_unsuppressed_findings(self):
        report = lint_paths([REPO_ROOT / "tests"])
        assert report.files_scanned > 50
        details = "\n".join(f.format() for f in report.findings)
        assert report.clean, f"repro lint found violations:\n{details}"

    def test_examples_tree_has_zero_unsuppressed_findings(self):
        report = lint_paths([REPO_ROOT / "examples"])
        assert report.files_scanned >= 3
        details = "\n".join(f.format() for f in report.findings)
        assert report.clean, f"repro lint found violations:\n{details}"
