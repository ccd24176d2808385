"""Figure 12: NLP latency improvement across policies and load levels.

The NLP (Senna) analog of Figure 10: "PowerChief achieves the most
average and 99% latency reduction in all cases" — with the paper's
Section 8.3 headline of 32.4x average / 19.4x tail on their testbed.  At
low load PowerChief tracks frequency boosting; at medium and high load it
tracks (or beats) instance boosting.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.figures.common import DEFAULT_SEEDS, Figure
from repro.experiments.figures.fig10 import (
    POLICIES,
    ImprovementFigureResult,
    improvement_figure,
    render_improvement_figure,
)
from repro.workloads.nlp import nlp_load_levels

__all__ = ["figure", "render_fig12"]


def figure(
    duration_s: float = 600.0,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    policies: Sequence[str] = POLICIES,
) -> Figure:
    """The Figure-12 grid for the NLP application."""
    return improvement_figure(
        "nlp", "Figure 12", nlp_load_levels(), duration_s, seeds, policies
    )


def render_fig12(result: ImprovementFigureResult) -> str:
    """ASCII rendering of Figure 12."""
    return render_improvement_figure(result)
