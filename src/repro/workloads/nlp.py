"""The Natural Language Processing workload (Figure 9).

The NLP application is Senna [Collobert et al.] restructured into three
services: Part-of-Speech tagging (POS), syntactic parsing (PSG) and
Semantic Role Labelling (SRL) — "the semantic parsing of the text in
natural language, which serves the automatic summarization commonly
adopted in search engines" (Section 7.1; Table-2 stage setup "1 POS
service, 1 PSG service and 1 SRL service").

Calibration: POS is cheap tagging, PSG's constituency parsing is
mid-weight, and SRL — which consumes the parse — dominates; all three are
largely compute-bound neural inference, so their frequency speedups are
close to linear.
"""

from __future__ import annotations

from repro.service.demand import LogNormalDemand
from repro.service.profile import PowerLawSpeedup, ServiceProfile
from repro.workloads.levels import LoadLevels, load_levels_for

__all__ = ["NLP_STAGES", "nlp_profiles", "nlp_load_levels"]

#: Pipeline order of the NLP stages.
NLP_STAGES = ("POS", "PSG", "SRL")

_LADDER_FLOOR_GHZ = 1.2


def nlp_profiles() -> list[ServiceProfile]:
    """Offline profiles of the three Senna services."""
    return [
        ServiceProfile(
            name="POS",
            demand=LogNormalDemand(mean_seconds=0.12, sigma=0.40),
            speedup=PowerLawSpeedup(_LADDER_FLOOR_GHZ, beta=0.90),
        ),
        ServiceProfile(
            name="PSG",
            demand=LogNormalDemand(mean_seconds=0.55, sigma=0.55),
            speedup=PowerLawSpeedup(_LADDER_FLOOR_GHZ, beta=1.00),
        ),
        ServiceProfile(
            name="SRL",
            demand=LogNormalDemand(mean_seconds=0.85, sigma=0.60),
            speedup=PowerLawSpeedup(_LADDER_FLOOR_GHZ, beta=0.95),
        ),
    ]


def nlp_load_levels(baseline_freq_ghz: float = 1.8) -> LoadLevels:
    """The low/medium/high arrival rates for the Table-2 deployment."""
    return load_levels_for(nlp_profiles(), baseline_freq_ghz)
