"""The accounting plane is an observer: free when absent, passive when on.

Two contracts ride on this file:

* **Zero cost when absent** — the golden seed-equivalence suite
  (``test_golden_equivalence.py``) already recomputes every pinned cell
  with no pillars armed and demands byte-identical digests, so the
  accounting plane's mere existence cannot perturb an unobserved run.
* **Passive when present** — armed pillars (including the streaming
  exporter, which rides the simulator's event hooks) must not change
  what the run computes: the full-observe digest equals the committed
  golden digest bit for bit, no pillar schedules an event beyond the
  power telemetry's sampling ticks, and the wall-clock overhead of
  observing stays within a loose bound.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.experiments.export import scenario_payload
from repro.scenario import ScenarioSpec, StackBuilder

from tests.integration.golden_cells import (
    cell_digest,
    golden_cells,
    load_goldens,
)

FULL_OBSERVE = (
    "trace",
    "metrics",
    "audit",
    "attribution",
    "slo",
    "energy",
    "stream",
)


def _observed(spec):
    return dataclasses.replace(
        spec,
        observe=FULL_OBSERVE,
        options=spec.options + (("slo_target_s", 2.0),),
    )


def test_fully_observed_run_matches_the_golden_digest() -> None:
    spec = golden_cells()["sirius-static"]
    golden = load_goldens()["sirius-static"]
    assert cell_digest(_observed(spec)) == golden, (
        "arming every observability pillar changed the run's outputs; "
        "the accounting plane must be a pure observer"
    )


def test_streaming_observation_overhead_is_bounded() -> None:
    spec = golden_cells()["sirius-static"]

    started = time.perf_counter()
    plain = cell_digest(spec)
    plain_wall = time.perf_counter() - started

    started = time.perf_counter()
    observed = cell_digest(_observed(spec))
    observed_wall = time.perf_counter() - started

    assert observed == plain
    # Generous bound: armed pillars may pay bookkeeping per event and
    # per query, but nothing superlinear; 3x plus scheduler slack keeps
    # the test meaningful without becoming CI noise.
    assert observed_wall <= plain_wall * 3.0 + 0.5, (
        f"observed run took {observed_wall:.2f}s vs plain "
        f"{plain_wall:.2f}s — accounting overhead out of bounds"
    )


def _built(observe):
    """A finished 30 s run armed with ``observe``, and its result payload."""
    builder = StackBuilder(
        ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 1.5),
            30.0,
            seed=3,
            observe=observe,
            slo_target_s=20.0,
        )
    )
    return builder, scenario_payload(builder.execute())


@pytest.mark.parametrize("pillar", FULL_OBSERVE)
def test_a_pillar_schedules_no_events_but_power_samples(pillar) -> None:
    # Observer hooks must not steer the run: arming a pillar adds no
    # event to the queue, except the sampling ticks of the power
    # telemetry that ``metrics`` starts (``energy`` only listens to them).
    base = ("metrics",) if pillar == "energy" else ()
    plain, plain_payload = _built(base)
    observed, payload = _built(base + (pillar,))
    ticks = len(observed.telemetry.samples) if pillar == "metrics" else 0
    assert observed.sim.events_processed == plain.sim.events_processed + ticks
    assert payload == plain_payload
