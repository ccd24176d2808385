"""Experiment harness: runners, the parallel cell engine and per-figure
drivers.  Specs, configs and result types live in :mod:`repro.scenario`."""

from repro.experiments.parallel import (
    CellOutcome,
    EngineReport,
    ResultCache,
    run_cells,
    spec_digest,
)
from repro.experiments.report import format_heading, format_table
from repro.experiments.runner import run_latency_experiment, run_qos_experiment

__all__ = [
    "CellOutcome",
    "EngineReport",
    "ResultCache",
    "run_cells",
    "spec_digest",
    "format_heading",
    "format_table",
    "run_latency_experiment",
    "run_qos_experiment",
]
