"""Golden seed-equivalence: optimisations must not change any output.

Each test recomputes one pinned cell end to end and compares the SHA-256
of its canonical result payload against the digest captured on the
pre-optimisation tree (``golden_digests.json``).  A failure here means
the run's *behaviour* changed — latencies, power samples, controller
actions, QoS violations — not just its speed.

If a PR intends a behavioural change, regenerate the goldens (see
``golden_cells.py``) and say so in the PR description.
"""

from __future__ import annotations

import pytest

from tests.integration.golden_cells import (
    cell_digest,
    golden_cells,
    load_goldens,
    load_observed_goldens,
    observed_cells,
    observed_parts,
)

_CELLS = golden_cells()
_GOLDENS = load_goldens()
_OBSERVED = observed_cells()
_OBSERVED_GOLDENS = load_observed_goldens()


def test_golden_file_covers_every_cell() -> None:
    assert sorted(_GOLDENS) == sorted(_CELLS), (
        "golden_digests.json is out of sync with golden_cells(); "
        "regenerate with: PYTHONPATH=src python "
        "tests/integration/golden_cells.py --regen"
    )


@pytest.mark.parametrize("name", sorted(_CELLS))
def test_cell_matches_golden_digest(name: str) -> None:
    assert cell_digest(_CELLS[name]) == _GOLDENS[name], (
        f"cell {name!r} no longer reproduces its golden digest: the run's "
        f"outputs changed, not just its speed"
    )


def test_observed_golden_file_covers_every_cell() -> None:
    assert sorted(_OBSERVED_GOLDENS) == sorted(_OBSERVED)


@pytest.mark.parametrize("name", sorted(_OBSERVED))
def test_observed_cell_matches_golden_parts(name: str) -> None:
    parts = observed_parts(_OBSERVED[name])
    expected = _OBSERVED_GOLDENS[name]
    assert sorted(parts) == sorted(expected)
    changed = sorted(part for part in parts if parts[part] != expected[part])
    assert not changed, (
        f"cell {name!r} no longer reproduces its pillar outputs: "
        f"{', '.join(changed)} changed"
    )
