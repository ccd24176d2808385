"""The paper's headline numbers, computed from the figure experiments.

Section 8.2/8.3: "PowerChief improves the average latency by 20.3x and
32.4x (99% tail latency by 13.3x and 19.4x) for Sirius and Natural
Language Processing applications respectively compared to stage-agnostic
power allocation."  Section 8.4: "PowerChief saves 25% and 43% power over
the baseline" for Sirius and Web Search "whereas Pegasus saves 2% and
10%".

:func:`compute_headline` derives the same aggregates from this
reproduction's figure results so EXPERIMENTS.md (and the abstract-style
summary printed by ``python -m repro figures all``) always reflect the
measured values.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.experiments.figures.fig10 import ImprovementFigureResult
from repro.experiments.figures.fig13 import QosFigureResult
from repro.experiments.parallel import ResultCache, run_cells
from repro.scenario.spec import ScenarioSpec

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
    """Measure the headline numbers through the parallel cell engine.

    Fans the underlying experiment cells — (app, policy, load, seed) for
    the Figure-10/12 improvement grids plus the Figure-13/14 QoS
    timelines — across ``max_workers`` processes, memoizing each cell in
    ``cache_dir``.  The aggregation mirrors the figure modules exactly:
    latencies are averaged across seeds before ratios are taken, and
    per-policy improvements are averaged across load levels.
    """
    from repro.experiments.figures.common import DEFAULT_SEEDS
    from repro.experiments.figures.fig13 import SIRIUS_QOS_RATE_QPS
    from repro.experiments.figures.fig14 import WEBSEARCH_QOS_RATE_QPS
    from repro.workloads.nlp import nlp_load_levels
    from repro.workloads.sirius import sirius_load_levels

    seeds = tuple(seeds) if seeds is not None else DEFAULT_SEEDS
    apps = {"sirius": sirius_load_levels(), "nlp": nlp_load_levels()}
    load_names = ("low", "medium", "high")
    qos_setups = (
        ("sirius", SIRIUS_QOS_RATE_QPS),
        ("websearch", WEBSEARCH_QOS_RATE_QPS),
    )
    qos_policies = ("baseline", "pegasus", "powerchief")

    def latency_cell(app: str, policy: str, rate: float, seed: int) -> ScenarioSpec:
        return ScenarioSpec.latency(
            app, policy, ("constant", rate), duration_s, seed
        )

    def qos_cell(app: str, policy: str, rate: float) -> ScenarioSpec:
        return ScenarioSpec.qos(app, policy, rate, qos_duration_s, qos_seed)

    specs: list[ScenarioSpec] = []
    for app, levels in apps.items():
        for load in load_names:
            rate = getattr(levels, f"{load}_qps")
            for policy in ("static", "powerchief"):
                for seed in seeds:
                    specs.append(latency_cell(app, policy, rate, seed))
    for app, rate in qos_setups:
        for policy in qos_policies:
            specs.append(qos_cell(app, policy, rate))

    report = run_cells(specs, max_workers=max_workers, cache=cache_dir)
    results = dict(zip(specs, report.outcomes))

    def mean_latencies(app: str, policy: str, rate: float) -> tuple[float, float]:
        runs = [
            results[latency_cell(app, policy, rate, seed)].result()
            for seed in seeds
        ]
        mean = sum(run.latency.mean for run in runs) / len(runs)
        p99 = sum(run.latency.p99 for run in runs) / len(runs)
        return mean, p99

    improvements: dict[str, tuple[float, float]] = {}
    for app, levels in apps.items():
        avg_ratios, p99_ratios = [], []
        for load in load_names:
            rate = getattr(levels, f"{load}_qps")
            base_mean, base_p99 = mean_latencies(app, "static", rate)
            chief_mean, chief_p99 = mean_latencies(app, "powerchief", rate)
            avg_ratios.append(base_mean / chief_mean)
            p99_ratios.append(base_p99 / chief_p99)
        improvements[app] = (
            sum(avg_ratios) / len(avg_ratios),
            sum(p99_ratios) / len(p99_ratios),
        )

    savings: dict[tuple[str, str], float] = {}
    for app, rate in qos_setups:
        fractions = {
            policy: results[qos_cell(app, policy, rate)]
            .result()
            .average_power_fraction
            for policy in qos_policies
        }
        baseline = fractions["baseline"]
        for policy in ("powerchief", "pegasus"):
            savings[(app, policy)] = (baseline - fractions[policy]) / baseline

    return Headline(
        sirius_avg_improvement=improvements["sirius"][0],
        sirius_p99_improvement=improvements["sirius"][1],
        nlp_avg_improvement=improvements["nlp"][0],
        nlp_p99_improvement=improvements["nlp"][1],
        sirius_power_saving=savings[("sirius", "powerchief")],
        websearch_power_saving=savings[("websearch", "powerchief")],
        sirius_pegasus_saving=savings[("sirius", "pegasus")],
        websearch_pegasus_saving=savings[("websearch", "pegasus")],
    )


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
