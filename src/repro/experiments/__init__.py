"""Experiment harness: the parallel cell engine and per-figure drivers.

Every run is a :class:`~repro.scenario.spec.ScenarioSpec` handed to
:func:`~repro.scenario.builder.run_scenario`; specs, configs and result
types live in :mod:`repro.scenario`."""

from repro.experiments.parallel import (
    CellOutcome,
    EngineReport,
    ResultCache,
    run_cells,
    spec_digest,
)
from repro.experiments.report import format_heading, format_table

__all__ = [
    "CellOutcome",
    "EngineReport",
    "ResultCache",
    "run_cells",
    "spec_digest",
    "format_heading",
    "format_table",
]
