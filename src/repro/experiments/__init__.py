"""Experiment harness: the parallel cell engine and the figure definitions.

Every run is a :class:`~repro.scenario.spec.ScenarioSpec` handed to
:func:`~repro.scenario.builder.run_scenario`; specs, configs and result
types live in :mod:`repro.scenario`.  Every figure is cells plus a
reducer (:mod:`repro.experiments.figures`), run by
:func:`repro.experiments.campaign.run_figures`."""

from repro.experiments.parallel import (
    CellOutcome,
    EngineReport,
    ResultCache,
    run_cells,
)
from repro.experiments.report import format_heading, format_table

__all__ = [
    "CellOutcome",
    "EngineReport",
    "ResultCache",
    "run_cells",
    "format_heading",
    "format_table",
]
