"""Integration test: every script in ``examples/`` runs end to end, and
so does the quick start in the package docstring.

The paper's shape claims are checked on the campaign's figure results
in ``test_paper_claims.py``.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize(
    "example", sorted((ROOT / "examples").glob("*.py")), ids=lambda path: path.stem
)
def test_example_runs(example):
    """Every example script runs to completion and prints its report."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(example)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        cwd=ROOT,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_quick_start_runs():
    """The ``::`` block of ``repro``'s docstring runs as written."""
    block = textwrap.dedent(repro.__doc__.split("::\n", 1)[1])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "repro quick start", "exec"), {})
    assert re.match(r"n=\d+ mean=\d+\.\d+s ", out.getvalue()), out.getvalue()
