"""Golden seed-equivalence cells: the byte-identity contract.

The hot-path optimisation work (bisect windows, heap compaction, cached
pool scans, incremental occupancy counts) promises to change *nothing*
about what a run computes — only how fast it computes it.  This module
pins that promise: a handful of small-but-representative cells, each
hashed down to one digest over the canonical JSON of its full result
payload (every latency percentile, power sample, controller action and
QoS violation).

``golden_digests.json`` was captured on the pre-optimisation tree; the
test recomputes each cell and compares digests.  Any divergence — a
reordered float sum, a changed tie-break, a perturbed random stream —
fails loudly with the cell name.

The observed cells extend the contract to the observability plane:
each one is run with pillars armed and digested part by part (result
payload, trace spans, audit entries, stream lines, Prometheus text,
attribution, SLO and, where armed, energy), so the arm-path wiring is
pinned as tightly as the run itself (``observed_digests.json``).

The output goldens pin what users read: every figure/table render of
the default campaign registry at full size, the stdout and ``--json``
payload of the single-run CLI commands, every artifact ``repro trace``
writes, and the headline numbers at :data:`HEADLINE_KWARGS`
(``output_digests.json``).

Regenerate (only when a PR *intends* a behavioural change) with::

    PYTHONPATH=src python tests/integration/golden_cells.py --regen

It rewrites the three files and prints one line per pinned digest that
moved (file, cell or group, part, old and new digest); a re-pin that
changes nothing prints nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from repro.guard.config import GuardConfig
from repro.scenario.spec import ScenarioSpec, StageAllocation

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
OBSERVED_PATH = Path(__file__).with_name("observed_digests.json")
OUTPUT_PATH = Path(__file__).with_name("output_digests.json")

ALL_PILLARS = ("trace", "metrics", "audit", "attribution", "slo", "energy", "stream")


def golden_cells() -> dict[str, ScenarioSpec]:
    """The pinned cells, spanning every serving and control path."""
    return {
        "sirius-powerchief": ScenarioSpec.latency(
            "sirius", "powerchief", ("constant", 1.95), 150.0, seed=3
        ),
        "sirius-static": ScenarioSpec.latency(
            "sirius", "static", ("constant", 1.95), 150.0, seed=3
        ),
        "nlp-freq-boost": ScenarioSpec.latency(
            "nlp", "freq-boost", ("constant", 1.4), 150.0, seed=5
        ),
        "sirius-inst-boost-wide": ScenarioSpec.latency(
            "sirius",
            "inst-boost",
            ("constant", 8.0),
            120.0,
            seed=7,
            budget_watts=60.0,
            allocation={
                "ASR": StageAllocation(count=4, level=1),
                "IMM": StageAllocation(count=4, level=1),
                "QA": StageAllocation(count=4, level=1),
            },
            n_cores=16,
        ),
        "sirius-chaos-sharded": ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 3.0),
            120.0,
            seed=11,
            chaos="crash-heavy",
            shards=2,
            drain_s=30.0,
        ),
        "websearch-qos-powerchief": ScenarioSpec.qos(
            "websearch", "powerchief", 8.0, 150.0, seed=3
        ),
        "sirius-qos-pegasus": ScenarioSpec.qos(
            "sirius", "pegasus", 7.0, 150.0, seed=3
        ),
    }


def observed_cells() -> dict[str, ScenarioSpec]:
    """Pillar-armed cells: one single stack, one sharded, one QoS, and
    the guarded headline shape, whose SLO window holds ~2,400 settles."""
    return {
        "sirius-powerchief-observed": ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 1.95),
            150.0,
            seed=3,
            observe=ALL_PILLARS,
            slo_target_s=3.0,
        ),
        "sirius-chaos-sharded-observed": ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 3.0),
            120.0,
            seed=11,
            chaos="crash-heavy",
            shards=2,
            drain_s=30.0,
            observe=("trace", "metrics", "audit", "attribution", "slo", "stream"),
            slo_target_s=3.0,
        ),
        "websearch-qos-powerchief-observed": ScenarioSpec.qos(
            "websearch", "powerchief", 8.0, 150.0, seed=3, observe=ALL_PILLARS
        ),
        "sirius-headline-observed": ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 40.0),
            150.0,
            seed=3,
            budget_watts=1000.0,
            allocation={
                "ASR": StageAllocation(count=22, level=1),
                "IMM": StageAllocation(count=21, level=1),
                "QA": StageAllocation(count=21, level=1),
            },
            n_cores=64,
            observe=ALL_PILLARS,
            guard=GuardConfig(),
            slo_target_s=5.0,
        ),
    }


def _digest(payload: object) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cell_digest(spec: ScenarioSpec) -> str:
    """SHA-256 over the canonical JSON of the cell's full result payload."""
    from repro.experiments.export import scenario_payload
    from repro.scenario import run_scenario

    return _digest(scenario_payload(run_scenario(spec)))


def observed_parts(spec: ScenarioSpec) -> dict[str, str]:
    """One digest per output of an observed run: the result payload and
    every armed pillar's export."""
    from repro.experiments.export import scenario_payload
    from repro.scenario import StackBuilder

    builder = StackBuilder(spec)
    result = builder.execute()
    obs = builder.observability
    assert obs is not None
    assert obs.tracer is not None and obs.metrics is not None
    assert obs.audit is not None and obs.attribution is not None
    assert obs.slo is not None and obs.stream is not None
    parts = {
        "payload": scenario_payload(result),
        "spans": [span.to_dict() for span in obs.tracer.spans],
        "audit": obs.audit.to_dicts(),
        "stream": obs.stream.lines,
        "prometheus": obs.metrics.render_prometheus(),
        "attribution": {
            "report": obs.attribution.report().to_dict(),
            "dropped": obs.attribution.dropped,
            "queries": [qa.to_dict() for qa in obs.attribution.attributions],
        },
        "slo": obs.slo.to_dict(),
    }
    if obs.energy is not None:
        parts["energy"] = obs.energy.to_dict(result.queries_completed)
    return {name: _digest(value) for name, value in parts.items()}


#: Single-run CLI commands whose stdout and ``--json`` payload are
#: pinned; ``guard`` is the CI smoke-guard command.
CLI_COMMANDS: dict[str, list[str]] = {
    "latency": [
        "latency", "sirius", "powerchief",
        "--rate", "1.95", "--duration", "150", "--seed", "3",
    ],
    "qos": ["qos", "websearch", "powerchief", "--duration", "150", "--seed", "3"],
    "chaos": [
        "chaos", "sirius", "powerchief", "--plan", "crash-heavy",
        "--rate", "4", "--duration", "120", "--seed", "0",
    ],
    "guard": [
        "guard", "sirius", "powerchief", "--rate", "3", "--duration", "600",
        "--seed", "3", "--slo-target", "20", "--demote-after", "1",
        "--probation", "60", "--storm-ticks", "2", "--no-baseline",
    ],
}

#: The traced run whose every artifact is pinned.
TRACE_COMMAND = ["trace", "sirius", "powerchief", "--duration", "120", "--seed", "3"]

#: The pinned ``run_headline`` call: short runs, default seeds.
HEADLINE_KWARGS = {"duration_s": 150.0, "qos_duration_s": 150.0}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(argv: list[str]) -> str:
    """Run one ``repro`` command in-process; returns its stdout."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"repro {' '.join(argv)} exited {code}"
    return out.getvalue()


def render_digest(name: str) -> str:
    """SHA-256 of one default-registry artefact rendered at full size,
    reduced through the figure runner ``repro campaign`` uses."""
    from repro.experiments.campaign import default_registry, run_figures

    figure = default_registry()[name]
    (result,), _ = run_figures([figure])
    return _sha256(figure.render(result).encode("utf-8"))


def cli_parts(name: str) -> dict[str, str]:
    """Digests of one CLI command's stdout (minus the line naming where
    the ``--json`` file went) and of the ``--json`` file itself."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "out.json"
        stdout = _run_cli(CLI_COMMANDS[name] + ["--json", str(path)])
        kept = [line for line in stdout.splitlines(True) if " written to " not in line]
        return {
            "stdout": _sha256("".join(kept).encode("utf-8")),
            "json": _sha256(path.read_bytes()),
        }


def trace_artifacts() -> dict[str, str]:
    """Digests of every file ``repro trace`` writes for :data:`TRACE_COMMAND`."""
    with tempfile.TemporaryDirectory() as scratch:
        _run_cli(TRACE_COMMAND + ["--output", scratch])
        return {
            path.name: _sha256(path.read_bytes())
            for path in sorted(Path(scratch).iterdir())
        }


def headline_digest() -> str:
    """Digest of every field of ``run_headline(**HEADLINE_KWARGS)``."""
    import dataclasses

    from repro.experiments.headline import run_headline

    return _digest(dataclasses.asdict(run_headline(**HEADLINE_KWARGS)))


def output_digests() -> dict[str, object]:
    """Every pinned user-facing output, grouped as ``output_digests.json``."""
    from repro.experiments.campaign import default_registry

    return {
        "renders": {name: render_digest(name) for name in sorted(default_registry())},
        "cli": {name: cli_parts(name) for name in sorted(CLI_COMMANDS)},
        "trace": trace_artifacts(),
        "headline": headline_digest(),
    }


def load_goldens() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def load_observed_goldens() -> dict[str, dict[str, str]]:
    return json.loads(OBSERVED_PATH.read_text())


def load_output_goldens() -> dict[str, object]:
    return json.loads(OUTPUT_PATH.read_text())


def _flatten(tree: object, key: tuple[str, ...] = ()) -> dict[tuple[str, ...], object]:
    """Every digest of a pinned file, keyed by its path through the JSON."""
    if not isinstance(tree, dict):
        return {key: tree}
    flat: dict[tuple[str, ...], object] = {}
    for name, value in tree.items():
        flat.update(_flatten(value, key + (name,)))
    return flat


def _repin(path: Path, digests: dict) -> None:
    """Pin ``digests`` in ``path``, printing each pinned digest that moved."""
    before = _flatten(json.loads(path.read_text())) if path.exists() else {}
    after = _flatten(digests)
    for key in sorted(before.keys() | after.keys()):
        old, new = before.get(key, "(none)"), after.get(key, "(none)")
        if old != new:
            print(f"{path.name}: {' / '.join(key)}: {old} -> {new}")
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def _regen() -> None:
    _repin(
        GOLDEN_PATH,
        {name: cell_digest(spec) for name, spec in golden_cells().items()},
    )
    _repin(
        OBSERVED_PATH,
        {name: observed_parts(spec) for name, spec in observed_cells().items()},
    )
    _repin(OUTPUT_PATH, output_digests())


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        print(__doc__)
        sys.exit(2)
    _regen()
