"""Golden bad-example snippets: every rule fires where we say it does.

Each test writes a tiny source tree under ``tmp_path`` whose directory
names mimic the ``repro`` package layout (``sim/``, ``core/``, ...) so
checker scopes resolve exactly as they do against ``src/repro``.  The
assertions pin the rule id AND the line number — a checker that drifts
to a different anchor breaks here, not in production triage.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_paths


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for relative, text in files.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def fired(report) -> list[tuple[str, int]]:
    """(rule, line) pairs in report order."""
    return [(finding.rule, finding.line) for finding in report.findings]


class TestWallClock:
    def test_fires_on_host_clock_reads(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sim/bad.py": """\
                import time
                import datetime


                def stamp() -> float:
                    return time.time()


                def when():
                    return datetime.datetime.now()
                """
            },
        )
        report = lint_paths([tmp_path], select=["wall-clock"])
        assert fired(report) == [("wall-clock", 6), ("wall-clock", 10)]
        assert "host clock" in report.findings[0].message

    def test_out_of_scope_directories_are_exempt(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "experiments/timing.py": """\
                import time


                def stamp() -> float:
                    return time.time()
                """
            },
        )
        report = lint_paths([tmp_path], select=["wall-clock"])
        assert report.clean

    def test_import_alias_is_resolved(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/bad.py": """\
                from time import perf_counter as tick


                def stamp() -> float:
                    return tick()
                """
            },
        )
        report = lint_paths([tmp_path], select=["wall-clock"])
        assert fired(report) == [("wall-clock", 5)]

    def test_line_suppression(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sim/bad.py": """\
                import time


                def stamp() -> float:
                    return time.time()  # repro-lint: disable=wall-clock
                """
            },
        )
        report = lint_paths([tmp_path], select=["wall-clock"])
        assert report.clean
        assert report.suppressed == 1


class TestUnseededRandom:
    def test_fires_on_global_stream_and_unseeded_generator(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "service/bad.py": """\
                import random


                def jitter() -> float:
                    return random.random()


                def make_rng():
                    return random.Random()
                """
            },
        )
        report = lint_paths([tmp_path], select=["unseeded-random"])
        assert fired(report) == [
            ("unseeded-random", 5),
            ("unseeded-random", 9),
        ]

    def test_seeded_generator_is_allowed(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "service/ok.py": """\
                import random


                def make_rng(seed: int):
                    return random.Random(seed)
                """
            },
        )
        report = lint_paths([tmp_path], select=["unseeded-random"])
        assert report.clean

    def test_numpy_alias_is_resolved(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sim/bad.py": """\
                import numpy as np


                def noise():
                    return np.random.rand()
                """
            },
        )
        report = lint_paths([tmp_path], select=["unseeded-random"])
        assert fired(report) == [("unseeded-random", 5)]


class TestUnitMismatch:
    def test_fires_on_mixed_addition_and_comparison(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/bad.py": """\
                def total(power_watts: float, freq_ghz: float) -> float:
                    return power_watts + freq_ghz


                def over(budget_watts: float, delay_s: float) -> bool:
                    return budget_watts < delay_s
                """
            },
        )
        report = lint_paths([tmp_path], select=["unit-mismatch"])
        assert fired(report) == [("unit-mismatch", 2), ("unit-mismatch", 6)]
        assert "W" in report.findings[0].message
        assert "GHz" in report.findings[0].message

    def test_same_unit_and_multiplication_are_allowed(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/ok.py": """\
                def combine(idle_watts: float, busy_watts: float, dt_s: float):
                    total_watts = idle_watts + busy_watts
                    energy_joules = total_watts * dt_s
                    return total_watts, energy_joules
                """
            },
        )
        report = lint_paths([tmp_path], select=["unit-mismatch"])
        assert report.clean

    def test_newtype_constructors_carry_units(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "cluster/bad.py": """\
                from repro.units import Ghz, Watts


                def broken():
                    return Watts(5.0) + Ghz(1.2)
                """
            },
        )
        report = lint_paths([tmp_path], select=["unit-mismatch"])
        assert fired(report) == [("unit-mismatch", 5)]

    def test_file_wide_suppression(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "cluster/bad.py": """\
                # repro-lint: disable-file=unit-mismatch
                def headroom(budget_watts: float, freq_ghz: float) -> float:
                    return budget_watts - freq_ghz
                """
            },
        )
        report = lint_paths([tmp_path], select=["unit-mismatch"])
        assert report.clean
        assert report.suppressed == 1


class TestPickleFanout:
    def test_fires_on_lambda_and_closure(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "experiments/bad.py": """\
                def drive(cells):
                    results = run_cells(lambda cell: cell, cells)

                    def helper(cell):
                        return cell

                    more = run_cells(helper, cells)
                    return results, more
                """
            },
        )
        report = lint_paths([tmp_path], select=["pickle-fanout"])
        assert fired(report) == [("pickle-fanout", 2), ("pickle-fanout", 7)]
        assert "closure 'helper'" in report.findings[1].message

    def test_executor_submit_is_covered(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "scale/bad.py": """\
                def drive(executor, cells):
                    return [executor.submit(lambda c: c, cell) for cell in cells]
                """
            },
        )
        report = lint_paths([tmp_path], select=["pickle-fanout"])
        assert fired(report) == [("pickle-fanout", 2)]

    def test_module_level_callables_are_allowed(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "experiments/ok.py": """\
                def run_one(cell):
                    return cell


                def drive(cells):
                    return run_cells(run_one, cells)
                """
            },
        )
        report = lint_paths([tmp_path], select=["pickle-fanout"])
        assert report.clean

    def test_out_of_scope_directories_are_exempt(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/helpers.py": """\
                def drive(cells):
                    return run_cells(lambda cell: cell, cells)
                """
            },
        )
        report = lint_paths([tmp_path], select=["pickle-fanout"])
        assert report.clean


class TestMetricName:
    def test_fires_on_bad_and_computed_names(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "obs/bad.py": """\
                def register(registry, suffix):
                    registry.counter("BadName")
                    registry.gauge("repro_" + suffix)
                    registry.histogram("repro_cell_latency_s")
                """
            },
        )
        report = lint_paths([tmp_path], select=["metric-name"])
        assert fired(report) == [("metric-name", 2), ("metric-name", 3)]
        assert "does not match" in report.findings[0].message
        assert "literal string constant" in report.findings[1].message


class TestMetricDuplicate:
    def test_cross_module_kind_conflict(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "obs/first.py": """\
                def register(registry):
                    registry.counter("repro_cells_total", "cells run")
                """,
                "obs/second.py": """\
                def register(registry):
                    registry.gauge("repro_cells_total", "cells run")
                """,
            },
        )
        report = lint_paths([tmp_path], select=["metric-duplicate"])
        assert fired(report) == [("metric-duplicate", 2)]
        finding = report.findings[0]
        assert finding.path.endswith("second.py")
        assert "instrument kind" in finding.message

    def test_consistent_reregistration_is_allowed(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "obs/first.py": """\
                def register(registry):
                    registry.counter("repro_cells_total", "cells run")
                """,
                "obs/second.py": """\
                def register(registry):
                    registry.counter("repro_cells_total", "cells run")
                """,
            },
        )
        report = lint_paths([tmp_path], select=["metric-duplicate"])
        assert report.clean


class TestDataclassRules:
    def test_mutable_default_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "workloads/bad.py": """\
                from dataclasses import dataclass, field


                @dataclass
                class Config:
                    tags: list = []
                    slots: dict = field(default={})
                """
            },
        )
        report = lint_paths([tmp_path], select=["dataclass-mutable-default"])
        assert fired(report) == [
            ("dataclass-mutable-default", 6),
            ("dataclass-mutable-default", 7),
        ]

    def test_default_factory_is_allowed(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "workloads/ok.py": """\
                from dataclasses import dataclass, field


                @dataclass
                class Config:
                    tags: list = field(default_factory=list)
                """
            },
        )
        report = lint_paths([tmp_path], select=["dataclass-mutable-default"])
        assert report.clean

    def test_frozen_shared_fires_on_value_like_class(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/value.py": """\
                from dataclasses import dataclass


                @dataclass
                class Sample:
                    time_s: float
                    power_watts: float
                """
            },
        )
        report = lint_paths([tmp_path], select=["dataclass-frozen-shared"])
        assert fired(report) == [("dataclass-frozen-shared", 5)]
        assert "Sample" in report.findings[0].message

    def test_frozen_shared_respects_cross_module_mutation(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/value.py": """\
                from dataclasses import dataclass


                @dataclass
                class Sample:
                    time_s: float
                    power_watts: float
                """,
                "core/mutator.py": """\
                def reset(sample):
                    sample.power_watts = 0.0
                """,
            },
        )
        report = lint_paths([tmp_path], select=["dataclass-frozen-shared"])
        assert report.clean


class TestParseError:
    def test_unparsable_file_becomes_a_finding(self, tmp_path):
        write_tree(tmp_path, {"sim/broken.py": "def f(:\n"})
        report = lint_paths([tmp_path])
        assert [finding.rule for finding in report.findings] == ["parse-error"]
        assert not report.clean

    def test_missing_target_raises(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            lint_paths([tmp_path / "nope"])


class TestSuppressionWildcard:
    def test_disable_all_on_a_line(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/bad.py": """\
                def total(power_watts, freq_ghz):
                    return power_watts + freq_ghz  # repro-lint: disable=all
                """
            },
        )
        report = lint_paths([tmp_path], select=["unit-mismatch"])
        assert report.clean
        assert report.suppressed == 1


class TestScenarioBypass:
    def test_fires_on_direct_stack_assembly(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "experiments/adhoc.py": """\
                from repro.cluster import Machine, PowerBudget
                from repro.service import CommandCenter
                from repro.sim import Simulator


                def assemble():
                    sim = Simulator()
                    machine = Machine(sim, n_cores=16)
                    budget = PowerBudget(machine, 40.0)
                    return CommandCenter(sim, None), budget
                """
            },
        )
        report = lint_paths([tmp_path], select=["scenario-bypass"])
        assert fired(report) == [
            ("scenario-bypass", 8),
            ("scenario-bypass", 9),
            ("scenario-bypass", 10),
        ]
        assert "bypasses the scenario layer" in report.findings[0].message

    def test_scenario_package_and_tests_are_exempt(self, tmp_path):
        snippet = """\
        from repro.cluster import Machine
        from repro.sim import Simulator


        def assemble():
            return Machine(Simulator(), n_cores=4)
        """
        write_tree(
            tmp_path,
            {"scenario/builder.py": snippet, "tests/test_machine.py": snippet},
        )
        report = lint_paths([tmp_path], select=["scenario-bypass"])
        assert report.clean

    def test_foreign_machine_is_not_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "experiments/other.py": """\
                import sklearn.machine as skm


                def foreign():
                    return skm.Machine()
                """
            },
        )
        report = lint_paths([tmp_path], select=["scenario-bypass"])
        assert report.clean

    def test_line_suppression(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "experiments/escape.py": """\
                from repro.cluster import Machine
                from repro.sim import Simulator


                def assemble():
                    return Machine(Simulator())  # repro-lint: disable=scenario-bypass
                """
            },
        )
        report = lint_paths([tmp_path], select=["scenario-bypass"])
        assert report.clean
        assert report.suppressed == 1
