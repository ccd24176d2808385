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

    def test_helpers_outside_the_simulation_fire_at_the_draw(self, tmp_path):
        # A helper anywhere in the tree can be called from the simulation,
        # so the draw is flagged where it happens, not at its callers.
        write_tree(
            tmp_path,
            {
                "util/jitter.py": """\
                import random


                def jitter(base_s):
                    return base_s * random.random()


                def indirect(base_s):
                    return jitter(base_s)


                def fresh_generator():
                    return random.Random()
                """,
                "faults/use.py": """\
                from repro.util.jitter import jitter, indirect, fresh_generator


                def delay(base_s):
                    return jitter(base_s)


                def delay2(base_s):
                    return indirect(base_s)


                def make_rng():
                    return fresh_generator()
                """,
            },
        )
        report = lint_paths([tmp_path], select=["unseeded-random"])
        assert [(f.package_path, f.line) for f in report.findings] == [
            ("util/jitter.py", 5),
            ("util/jitter.py", 13),
        ]
        assert "random.random()" in report.findings[0].message

    def test_seeded_helpers_are_silent(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "util/streams.py": """\
                import random


                def stream_for(seed):
                    return random.Random(seed)
                """,
                "faults/use.py": """\
                from repro.util.streams import stream_for


                def delay(base_s, seed):
                    return stream_for(seed).random() * base_s
                """,
            },
        )
        report = lint_paths([tmp_path], select=["unseeded-random"])
        assert report.clean

    def test_tests_and_examples_are_in_scope(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "tests/test_jitter.py": """\
                import random


                def test_jitter_is_small():
                    assert random.uniform(0.0, 0.1) < 0.2
                """,
                "examples/pick.py": """\
                from random import choice

                print(choice(["sirius", "nlp"]))
                """,
            },
        )
        report = lint_paths(
            [tmp_path / "tests", tmp_path / "examples"], select=["unseeded-random"]
        )
        assert [(f.package_path, f.line) for f in report.findings] == [
            ("examples/pick.py", 3),
            ("tests/test_jitter.py", 5),
        ]
        assert "random.choice()" in report.findings[0].message


#: One set-valued form per case, beyond the corpora below: the source of
#: ``sim/forms.py`` and the line of the loop or comprehension that fires.
SET_FORMS = {
    "union-operator": (
        """\
        def merged(names, extra):
            for name in set(names) | extra:
                print(name)
        """,
        2,
    ),
    "intersection-operator-on-the-right": (
        """\
        def shared(names, other):
            return [name for name in names & set(other)]
        """,
        2,
    ),
    "symmetric-difference-operator": (
        """\
        def changed(before, after):
            return {name: 1 for name in frozenset(before) ^ frozenset(after)}
        """,
        2,
    ),
    "intersection-method": (
        """\
        def shared(names, other):
            for name in set(names).intersection(other):
                print(name)
        """,
        2,
    ),
    "difference-method-in-a-generator": (
        """\
        def missing(wanted, present):
            pending = set(wanted)
            return list(name for name in pending.difference(present))
        """,
        3,
    ),
    "symmetric-difference-method": (
        """\
        def changed(before: frozenset[str], after):
            for name in before.symmetric_difference(after):
                print(name)
        """,
        2,
    ),
    "typing-set-parameter": (
        """\
        from typing import Set


        def crash_all(victims: Set[str]):
            for victim in victims:
                print(victim)
        """,
        5,
    ),
    "dotted-abstract-set-parameter": (
        """\
        import typing


        def crash_all(victims: typing.AbstractSet[str]):
            for victim in victims:
                print(victim)
        """,
        5,
    ),
    "keyword-only-parameter": (
        """\
        def crash_all(*, victims: set):
            for victim in victims:
                print(victim)
        """,
        2,
    ),
    "positional-only-parameter": (
        """\
        def crash_all(victims: set, /):
            for victim in victims:
                print(victim)
        """,
        2,
    ),
    "async-function-parameter": (
        """\
        async def crash_all(victims: set[str]):
            for victim in victims:
                await victim.crash()
        """,
        2,
    ),
    "annotated-local": (
        """\
        def crash_all(stages):
            victims: set[str] = collect(stages)
            for victim in victims:
                print(victim)
        """,
        3,
    ),
    "rebound-name": (
        """\
        def crash_all(stages):
            victims = set(stages)
            queue = victims
            for victim in queue:
                print(victim)
        """,
        4,
    ),
    "module-level-comprehension": (
        """\
        STAGES = {"ASR", "IMM", "QA"}
        ORDER = [stage.lower() for stage in STAGES]
        """,
        2,
    ),
}

#: Loops the rule must leave alone: nothing in them is known to be a set.
ORDERED_FORMS = {
    "dict-merge-operator": """\
        def merged(defaults, overrides):
            for key in defaults | overrides:
                print(key)
        """,
    "name-bound-in-another-function": """\
        def first(stages):
            names = set(stages)
            return len(names)


        def second(names):
            for name in names:
                print(name)
        """,
    "parameter-shadows-an-outer-set": """\
        def outer(stages):
            names = set(stages)

            def inner(names: list):
                return [name for name in names]

            return inner(sorted(names))
        """,
}


class TestUnorderedIteration:
    @pytest.mark.parametrize("form", sorted(SET_FORMS))
    def test_each_set_form_fires(self, tmp_path, form):
        source, line = SET_FORMS[form]
        write_tree(tmp_path, {"sim/forms.py": source})
        report = lint_paths([tmp_path], select=["unordered-iteration"])
        assert fired(report) == [("unordered-iteration", line)]

    @pytest.mark.parametrize("form", sorted(ORDERED_FORMS))
    def test_loops_over_unknown_values_are_silent(self, tmp_path, form):
        write_tree(tmp_path, {"sim/forms.py": ORDERED_FORMS[form]})
        report = lint_paths([tmp_path], select=["unordered-iteration"])
        assert report.clean

    def test_set_loops_reaching_side_effects(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sim/det.py": """\
                import heapq


                def schedule_victims(sim, victims: set, delay_s):
                    for victim in victims:
                        sim.schedule(delay_s, victim.crash)


                def heap_from_set(pending):
                    ids = {1, 2, 3}
                    heap = []
                    for item in ids:
                        heapq.heappush(heap, item)
                    return heap


                def via_helper(sim, names):
                    targets = set(names)
                    for name in targets:
                        _enqueue(sim, name)


                def _enqueue(sim, name):
                    sim.schedule(1.0, name)
                """
            },
        )
        report = lint_paths([tmp_path], select=["unordered-iteration"])
        assert fired(report) == [
            ("unordered-iteration", 5),
            ("unordered-iteration", 12),
            ("unordered-iteration", 19),
        ]

    def test_sorted_iteration_is_silent_and_a_pure_body_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sim/ok.py": """\
                def sorted_is_fine(sim, victims: set, delay_s):
                    for victim in sorted(victims):
                        sim.schedule(delay_s, victim.crash)


                def pure_body(victims: set):
                    total = 0.0
                    for victim in victims:
                        total += victim.cost
                    return total
                """
            },
        )
        report = lint_paths([tmp_path], select=["unordered-iteration"])
        # The body is not read: a float sum over a set is order-dependent
        # too, and sorted(...) costs nothing to write.
        assert fired(report) == [("unordered-iteration", 8)]

    def test_comprehensions_and_set_expressions_fire(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/withdraw.py": """\
                from typing import FrozenSet


                def run(application):
                    for name in {stage.name for stage in application.stages}:
                        application.stage(name).withdraw()


                def hangs(application, busy):
                    for stage in set(application.stages):
                        stage.crash()
                    live: FrozenSet[str] = frozenset(busy)
                    spare = live - {"ASR"}
                    names = [name for name in spare]
                    return {name: 1 for name in live.union(busy)}, names


                def ordered(application, busy: list):
                    seen = set(busy)
                    return [name for name in sorted(seen)], [
                        stage for stage in application.stages
                    ]
                """
            },
        )
        report = lint_paths([tmp_path], select=["unordered-iteration"])
        assert fired(report) == [
            ("unordered-iteration", 5),
            ("unordered-iteration", 10),
            ("unordered-iteration", 14),
            ("unordered-iteration", 15),
        ]

    def test_out_of_scope_directories_are_exempt(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "obs/report.py": """\
                def names(stages):
                    return [name for name in {stage.name for stage in stages}]
                """
            },
        )
        report = lint_paths([tmp_path], select=["unordered-iteration"])
        assert report.clean


#: The mutable defaults ``@dataclass`` must reject, as written in a field.
MUTABLE_DEFAULTS = (
    "[]",
    "[x for x in range(2)]",
    "{}",
    "{x: x for x in range(2)}",
    "{1}",
    "{x for x in range(2)}",
    "list()",
    "dict()",
    "set()",
    "bytearray()",
    "deque()",
    "defaultdict()",
    "Counter()",
)


class TestDataclassRules:
    def test_python_rejects_every_mutable_default(self):
        # No lint rule guards these: the interpreter refuses them at class
        # creation, bare and through field(default=...).
        from collections import Counter, defaultdict, deque
        from dataclasses import dataclass, field

        namespace = {
            "dataclass": dataclass,
            "field": field,
            "deque": deque,
            "defaultdict": defaultdict,
            "Counter": Counter,
        }
        forms = [
            form
            for default in MUTABLE_DEFAULTS
            for form in (default, f"field(default={default})")
        ]
        assert len(forms) == 26
        for form in forms:
            source = f"@dataclass\nclass Config:\n    tags: object = {form}\n"
            with pytest.raises(ValueError, match="mutable default"):
                exec(source, dict(namespace))


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
                def pick(names):
                    return [n for n in set(names)]  # repro-lint: disable=all
                """
            },
        )
        report = lint_paths([tmp_path], select=["unordered-iteration"])
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

    def test_file_wide_suppression(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "experiments/harness.py": """\
                # repro-lint: disable-file=scenario-bypass
                from repro.cluster import Machine, PowerBudget
                from repro.sim import Simulator


                def assemble():
                    machine = Machine(Simulator(), n_cores=4)
                    return PowerBudget(machine, 20.0)
                """
            },
        )
        report = lint_paths([tmp_path], select=["scenario-bypass"])
        assert report.clean
        assert report.suppressed == 2
