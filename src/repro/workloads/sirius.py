"""The Sirius intelligent-personal-assistant workload (Figures 1, 8).

Sirius [Hauswald et al., ASPLOS'15] processes a voice-and-vision query
through Automatic Speech Recognition (ASR), Image Matching (IMM) and
Question-Answering (QA) stages (Figure 8; the evaluation's Table-2 stage
setup is "1 ASR service, 1 IMM service and 1 QA service").

Demand calibration (seconds of work at the 1.2 GHz ladder floor) follows
the stage behaviour the paper reports: QA is the heaviest stage and the
usual bottleneck, ASR is the second bottleneck under load (Figure 11),
and IMM is light.  IMM's sub-linear frequency speedup (``beta < 1``)
models its memory-bound feature matching, which is why boosting IMM is a
poor use of power (Figure 2).
"""

from __future__ import annotations

from repro.service.demand import LogNormalDemand
from repro.service.profile import PowerLawSpeedup, ServiceProfile
from repro.workloads.levels import LoadLevels, load_levels_for

__all__ = [
    "SIRIUS_STAGES",
    "sirius_profiles",
    "sirius_load_levels",
]

#: Pipeline order of the Sirius stages.
SIRIUS_STAGES = ("ASR", "IMM", "QA")

_LADDER_FLOOR_GHZ = 1.2


def sirius_profiles() -> list[ServiceProfile]:
    """Offline profiles of the three Sirius services."""
    return [
        ServiceProfile(
            name="ASR",
            demand=LogNormalDemand(mean_seconds=0.50, sigma=0.45),
            speedup=PowerLawSpeedup(_LADDER_FLOOR_GHZ, beta=0.85),
        ),
        ServiceProfile(
            name="IMM",
            demand=LogNormalDemand(mean_seconds=0.20, sigma=0.50),
            speedup=PowerLawSpeedup(_LADDER_FLOOR_GHZ, beta=0.55),
        ),
        ServiceProfile(
            name="QA",
            demand=LogNormalDemand(mean_seconds=1.00, sigma=0.60),
            speedup=PowerLawSpeedup(_LADDER_FLOOR_GHZ, beta=1.00),
        ),
    ]


def sirius_load_levels(baseline_freq_ghz: float = 1.8) -> LoadLevels:
    """The low/medium/high arrival rates for the Table-2 deployment."""
    return load_levels_for(sirius_profiles(), baseline_freq_ghz)
