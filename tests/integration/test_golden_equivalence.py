"""Golden seed-equivalence: optimisations must not change any output.

Each test recomputes one pinned cell end to end and compares the SHA-256
of its canonical result payload against the digest captured on the
pre-optimisation tree (``golden_digests.json``).  A failure here means
the run's *behaviour* changed — latencies, power samples, controller
actions, QoS violations — not just its speed.

The output goldens (``output_digests.json``) pin what a user reads: the
figure renders, the single-run CLI commands' stdout and ``--json``
payloads, the ``repro trace`` artifacts and the headline numbers.

If a PR intends a behavioural change, regenerate the goldens (see
``golden_cells.py``) and say so in the PR description.
"""

from __future__ import annotations

import pytest

from tests.integration.golden_cells import (
    CLI_COMMANDS,
    cell_digest,
    cli_parts,
    golden_cells,
    headline_digest,
    load_goldens,
    load_observed_goldens,
    load_output_goldens,
    observed_cells,
    observed_parts,
    render_digest,
    trace_artifacts,
)

_CELLS = golden_cells()
_GOLDENS = load_goldens()
_OBSERVED = observed_cells()
_OBSERVED_GOLDENS = load_observed_goldens()
_OUTPUT_GOLDENS = load_output_goldens()


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


def test_output_golden_file_covers_every_output() -> None:
    from repro.experiments.campaign import default_registry

    assert sorted(_OUTPUT_GOLDENS["renders"]) == sorted(default_registry())
    assert sorted(_OUTPUT_GOLDENS["cli"]) == sorted(CLI_COMMANDS)


@pytest.mark.parametrize("name", sorted(_OUTPUT_GOLDENS["renders"]))
def test_render_matches_golden(name: str) -> None:
    assert render_digest(name) == _OUTPUT_GOLDENS["renders"][name], (
        f"artefact {name!r} no longer renders byte for byte"
    )


@pytest.mark.parametrize("name", sorted(CLI_COMMANDS))
def test_cli_output_matches_golden(name: str) -> None:
    parts = cli_parts(name)
    expected = _OUTPUT_GOLDENS["cli"][name]
    changed = sorted(part for part in expected if parts[part] != expected[part])
    assert not changed, f"repro {name}: {', '.join(changed)} changed"


def test_trace_artifacts_match_golden() -> None:
    assert trace_artifacts() == _OUTPUT_GOLDENS["trace"]


def test_headline_matches_golden() -> None:
    assert headline_digest() == _OUTPUT_GOLDENS["headline"], (
        "run_headline no longer reproduces its pinned numbers"
    )
