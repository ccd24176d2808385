"""Suppression-comment edge cases: decorators, multiline statements,
standalone and stacked comments.

The PR-3 suppressions were strictly physical-line: a comment had to sit
on the exact line the finding anchored to, which is impossible for
decorated defs (the finding anchors at ``def``, the natural place for
the comment is above the decorator) and ugly for multiline statements.
These tests pin the resolved semantics.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import lint_paths
from repro.lint.source import SourceModule


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for relative, text in files.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


class TestStandaloneComments:
    def test_comment_line_covers_next_code_line(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sim/a.py": """\
                import time


                def stamp():
                    # timestamping the artifact name is fine off-path
                    # repro-lint: disable=wall-clock
                    return time.time()
                """
            },
        )
        report = lint_paths([tmp_path], select=["wall-clock"])
        assert report.clean
        assert report.suppressed == 1

    def test_stacked_comments_all_attach(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sim/a.py": """\
                import random
                import time


                def stamp():
                    # repro-lint: disable=wall-clock
                    # repro-lint: disable=unseeded-random
                    return time.time() + random.random()
                """
            },
        )
        report = lint_paths(
            [tmp_path], select=["wall-clock", "unseeded-random"]
        )
        assert report.clean
        assert report.suppressed == 2

    def test_comment_does_not_leak_past_the_next_code_line(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sim/a.py": """\
                import time


                def stamp():
                    # repro-lint: disable=wall-clock
                    first = time.time()
                    second = time.time()
                    return first - second
                """
            },
        )
        report = lint_paths([tmp_path], select=["wall-clock"])
        # Line 6 (right under the comment) is covered; line 7 is not.
        assert [f.line for f in report.findings] == [7]
        assert report.suppressed == 1


#: A host-clock read in a default argument anchors at the ``def`` line,
#: below its decorator.
DECORATED_DEF = """\
import functools
import time


{above}
@functools.lru_cache(maxsize=None){inline}
def stamp(at=time.time()):
    return at
"""


class TestDecoratedDefs:
    def test_unsuppressed_finding_anchors_at_the_def(self, tmp_path):
        source = DECORATED_DEF.format(above="", inline="")
        write_tree(tmp_path, {"sim/a.py": source})
        report = lint_paths([tmp_path], select=["wall-clock"])
        assert [f.line for f in report.findings] == [7]

    def test_comment_above_decorator_covers_the_def(self, tmp_path):
        source = DECORATED_DEF.format(
            above="# repro-lint: disable=wall-clock", inline=""
        )
        write_tree(tmp_path, {"sim/a.py": source})
        report = lint_paths([tmp_path], select=["wall-clock"])
        assert report.clean
        assert report.suppressed == 1

    def test_comment_on_decorator_line_covers_the_def(self, tmp_path):
        source = DECORATED_DEF.format(
            above="", inline="  # repro-lint: disable=wall-clock"
        )
        write_tree(tmp_path, {"sim/a.py": source})
        report = lint_paths([tmp_path], select=["wall-clock"])
        assert report.clean
        assert report.suppressed == 1


class TestMultilineStatements:
    def test_comment_on_continuation_line_covers_the_statement(
        self, tmp_path
    ):
        write_tree(
            tmp_path,
            {
                "core/a.py": """\
                import time


                def stamp(offset_s):
                    total = time.time() + (
                        offset_s  # repro-lint: disable=wall-clock
                    )
                    return total
                """
            },
        )
        report = lint_paths([tmp_path], select=["wall-clock"])
        assert report.clean
        assert report.suppressed == 1

    def test_unsuppressed_multiline_still_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/a.py": """\
                import time


                def stamp(offset_s):
                    total = time.time() + (
                        offset_s
                    )
                    return total
                """
            },
        )
        report = lint_paths([tmp_path], select=["wall-clock"])
        assert [f.line for f in report.findings] == [5]


class TestSuppressionScoping:
    def test_suppression_is_per_rule(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sim/a.py": """\
                import time
                import random


                def stamp():
                    # repro-lint: disable=unseeded-random
                    return time.time() + random.random()
                """
            },
        )
        report = lint_paths(
            [tmp_path], select=["wall-clock", "unseeded-random"]
        )
        assert [f.rule for f in report.findings] == ["wall-clock"]
        assert report.suppressed == 1

    def test_disable_all_still_works(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sim/a.py": """\
                import time


                def stamp():
                    return time.time()  # repro-lint: disable=all
                """
            },
        )
        report = lint_paths([tmp_path], select=["wall-clock"])
        assert report.clean

    def test_resolved_suppressions_keep_original_lines(self, tmp_path):
        # A same-line comment keeps covering its own physical line even
        # after anchor remapping adds the statement anchor.
        target = tmp_path / "a.py"
        target.write_text(
            "x = 1  # repro-lint: disable=some-rule\n", encoding="utf-8"
        )
        module = SourceModule.parse(target, "a.py")
        assert module.suppressions.covers(1, "some-rule")
