"""The paper's headline numbers, computed from the figure experiments.

Section 8.2/8.3: "PowerChief improves the average latency by 20.3x and
32.4x (99% tail latency by 13.3x and 19.4x) for Sirius and Natural
Language Processing applications respectively compared to stage-agnostic
power allocation."  Section 8.4: "PowerChief saves 25% and 43% power over
the baseline" for Sirius and Web Search "whereas Pegasus saves 2% and
10%".

:func:`compute_headline` derives the same aggregates from this
reproduction's figure results so EXPERIMENTS.md (and the abstract-style
summary printed by ``python -m repro headline``) always reflect the
measured values; :func:`run_headline` runs those figures for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.experiments.campaign import run_figures
from repro.experiments.figures.common import DEFAULT_SEEDS
from repro.experiments.figures.fig10 import ImprovementFigureResult
from repro.experiments.figures.fig13 import QosFigureResult
from repro.experiments.parallel import ResultCache

__all__ = ["Headline", "compute_headline", "run_headline", "format_headline"]


@dataclass(frozen=True)
class Headline:
    """The reproduction's analog of the abstract's four claims."""

    sirius_avg_improvement: float
    sirius_p99_improvement: float
    nlp_avg_improvement: float
    nlp_p99_improvement: float
    sirius_power_saving: Optional[float] = None
    websearch_power_saving: Optional[float] = None
    sirius_pegasus_saving: Optional[float] = None
    websearch_pegasus_saving: Optional[float] = None


def compute_headline(
    fig10: ImprovementFigureResult,
    fig12: ImprovementFigureResult,
    fig13: Optional[QosFigureResult] = None,
    fig14: Optional[QosFigureResult] = None,
) -> Headline:
    """Aggregate the figure results into the abstract's headline numbers."""
    sirius_avg, sirius_p99 = fig10.average_improvement("powerchief")
    nlp_avg, nlp_p99 = fig12.average_improvement("powerchief")
    headline = {
        "sirius_avg_improvement": sirius_avg,
        "sirius_p99_improvement": sirius_p99,
        "nlp_avg_improvement": nlp_avg,
        "nlp_p99_improvement": nlp_p99,
    }
    if fig13 is not None:
        headline["sirius_power_saving"] = fig13.saving_over_baseline("powerchief")
        headline["sirius_pegasus_saving"] = fig13.saving_over_baseline("pegasus")
    if fig14 is not None:
        headline["websearch_power_saving"] = fig14.saving_over_baseline(
            "powerchief"
        )
        headline["websearch_pegasus_saving"] = fig14.saving_over_baseline(
            "pegasus"
        )
    return Headline(**headline)


def run_headline(
    duration_s: float = 600.0,
    qos_duration_s: float = 800.0,
    seeds: Optional[Sequence[int]] = None,
    qos_seed: int = 3,
    max_workers: int = 1,
    cache_dir: Union[ResultCache, str, Path, None] = None,
) -> Headline:
    """Measure the headline numbers through the figure runner.

    Runs the Figure-10/12 grids restricted to the static baseline and
    PowerChief, plus Figures 13 and 14 at ``qos_duration_s`` and
    ``qos_seed``, as one deduplicated set of cells fanned across
    ``max_workers`` processes and memoized in ``cache_dir`` — so it
    shares cache entries with ``repro campaign`` — and hands the
    reduced figures to :func:`compute_headline`.
    """
    from repro.experiments.figures import fig10, fig12, fig13, fig14

    seeds = tuple(seeds) if seeds is not None else DEFAULT_SEEDS
    figures = [
        fig10.figure(duration_s, seeds, policies=("powerchief",)),
        fig12.figure(duration_s, seeds, policies=("powerchief",)),
        fig13.figure(qos_duration_s, qos_seed),
        fig14.figure(qos_duration_s, qos_seed),
    ]
    results, _ = run_figures(figures, max_workers=max_workers, cache=cache_dir)
    return compute_headline(*results)


def format_headline(headline: Headline) -> str:
    """An abstract-style sentence pair with the measured values."""
    lines = [
        "Measured headline (this reproduction):",
        (
            f"  PowerChief improves the average latency by "
            f"{headline.sirius_avg_improvement:.1f}x and "
            f"{headline.nlp_avg_improvement:.1f}x (99% tail latency by "
            f"{headline.sirius_p99_improvement:.1f}x and "
            f"{headline.nlp_p99_improvement:.1f}x) for Sirius and NLP "
            f"respectively, compared to stage-agnostic power allocation."
        ),
    ]
    if (
        headline.sirius_power_saving is not None
        and headline.websearch_power_saving is not None
    ):
        lines.append(
            f"  For the given QoS target, PowerChief reduces the power "
            f"consumption of Sirius and Web Search by "
            f"{headline.sirius_power_saving * 100:.0f}% and "
            f"{headline.websearch_power_saving * 100:.0f}% respectively "
            f"(Pegasus: {headline.sirius_pegasus_saving * 100:.0f}% and "
            f"{headline.websearch_pegasus_saving * 100:.0f}%)."
        )
    lines.append(
        "  (Paper, on its hardware testbed: 20.3x / 32.4x avg, 13.3x / "
        "19.4x p99; 25% / 43% power vs Pegasus's 2% / 10%.)"
    )
    return "\n".join(lines)
