"""Workloads: load generation and the paper's three applications.

Poisson load generation over constant or piecewise traces
(:class:`PoissonLoadGenerator`), capacity-anchored load levels
(:func:`load_levels_for`), and the offline profiles of the evaluated
applications: Sirius (ASR -> IMM -> QA), NLP/Senna (POS -> PSG -> SRL)
and Web Search (scatter-gather leaves -> aggregation).  The scenario
layer assembles them (:func:`repro.scenario.config.app_stages`).
"""

from repro.workloads.levels import (
    LoadLevel,
    LoadLevels,
    load_levels_for,
    saturation_rate,
)
from repro.workloads.loadgen import (
    ConstantLoad,
    DiurnalLoad,
    LoadTrace,
    PiecewiseLoad,
    PoissonLoadGenerator,
    QueryFactory,
)
from repro.workloads.nlp import NLP_STAGES, nlp_load_levels, nlp_profiles
from repro.workloads.sirius import (
    SIRIUS_STAGES,
    sirius_load_levels,
    sirius_profiles,
)
from repro.workloads.traces import FIG11_DURATION_S, fig11_trace
from repro.workloads.websearch import (
    WEBSEARCH_QOS_TARGET_S,
    WEBSEARCH_STAGES,
    websearch_profiles,
)

__all__ = [
    "LoadLevel",
    "LoadLevels",
    "load_levels_for",
    "saturation_rate",
    "ConstantLoad",
    "DiurnalLoad",
    "LoadTrace",
    "PiecewiseLoad",
    "PoissonLoadGenerator",
    "QueryFactory",
    "NLP_STAGES",
    "nlp_load_levels",
    "nlp_profiles",
    "SIRIUS_STAGES",
    "sirius_load_levels",
    "sirius_profiles",
    "FIG11_DURATION_S",
    "fig11_trace",
    "WEBSEARCH_QOS_TARGET_S",
    "WEBSEARCH_STAGES",
    "websearch_profiles",
]
