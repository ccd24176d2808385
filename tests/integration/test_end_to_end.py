"""Integration test: every script in ``examples/`` runs end to end.

The paper's shape claims are checked on the campaign's figure results
in ``test_paper_claims.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
