"""Figure 2: normalized Sirius latency when boosting single stages.

The paper's motivating experiment: under the same 13.56 W budget, boost
exactly one stage — with frequency boosting or instance boosting — and
observe how wildly the response latency varies with the choice.  "The
nonoptimal boosting decision (e.g., instance boosting the IMM service)
results in significant performance degradation ... Compared to the
optimal boosting decision with the right boosting technique (e.g.,
instance boosting the QA service), the latency reduction is more than
40%."

Each bar is a *static* allocation (no runtime controller):

* frequency-boosting stage X: X's instance at the highest level the
  budget affords with every other stage dropped to the ladder floor;
* instance-boosting stage X: two instances of X at the highest equal
  level that fits alongside the floored other stages.

Latency is normalized to the stage-agnostic baseline (all stages at
1.8 GHz), so values below 1.0 are improvements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ExperimentError
from repro.cluster.frequency import HASWELL_LADDER
from repro.cluster.power import DEFAULT_POWER_MODEL
from repro.scenario.config import (
    TABLE2_INITIAL_FREQ_GHZ,
    TABLE2_POWER_BUDGET_WATTS,
)
from repro.experiments.figures.common import DEFAULT_SEEDS, Figure, seed_means
from repro.experiments.report import format_heading, format_table
from repro.scenario.results import RunResult
from repro.scenario.spec import ScenarioSpec, StageAllocation
from repro.workloads.sirius import SIRIUS_STAGES, sirius_load_levels

__all__ = ["Fig02Bar", "Fig02Result", "figure", "render_fig02"]


@dataclass(frozen=True)
class Fig02Bar:
    """One bar of Figure 2."""

    stage: str
    technique: str
    normalized_latency: float
    allocation: dict[str, StageAllocation]


@dataclass(frozen=True)
class Fig02Result:
    baseline_mean_s: float
    bars: tuple[Fig02Bar, ...]

    def best(self) -> Fig02Bar:
        """The bar with the lowest normalized latency."""
        return min(self.bars, key=lambda bar: bar.normalized_latency)

    def worst(self) -> Fig02Bar:
        return max(self.bars, key=lambda bar: bar.normalized_latency)

    def bar(self, stage: str, technique: str) -> Fig02Bar:
        for candidate in self.bars:
            if candidate.stage == stage and candidate.technique == technique:
                return candidate
        raise ExperimentError(f"no bar for {stage}/{technique}")


def _boost_allocations(stage: str) -> dict[str, dict[str, StageAllocation]]:
    """The frequency- and instance-boost allocations for one stage."""
    ladder = HASWELL_LADDER
    model = DEFAULT_POWER_MODEL
    floor = ladder.min_level
    others = [name for name in SIRIUS_STAGES if name != stage]
    floor_watts = model.power_of_level(ladder, floor) * len(others)
    headroom = TABLE2_POWER_BUDGET_WATTS - floor_watts

    freq_level = model.max_level_within(ladder, headroom)
    if freq_level is None:
        raise ExperimentError(
            f"budget {TABLE2_POWER_BUDGET_WATTS} W cannot host stage {stage}"
        )
    inst_level = model.max_level_within(ladder, headroom / 2.0)
    if inst_level is None:
        raise ExperimentError(
            f"budget {TABLE2_POWER_BUDGET_WATTS} W cannot host two instances "
            f"of stage {stage}"
        )
    freq_alloc = {name: StageAllocation(1, floor) for name in others}
    freq_alloc[stage] = StageAllocation(1, freq_level)
    inst_alloc = {name: StageAllocation(1, floor) for name in others}
    inst_alloc[stage] = StageAllocation(2, inst_level)
    return {"frequency": freq_alloc, "instance": inst_alloc}


def figure(
    duration_s: float = 600.0,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> Figure:
    """Every static single-stage boost under low load, plus the baseline.

    Low load keeps the floored non-boosted stages out of saturation, so
    a wrong boosting decision degrades latency by tens of percent (as in
    the figure) rather than driving an unbounded queue.
    """
    rate = sirius_load_levels().low_qps
    baseline_level = HASWELL_LADDER.level_of(TABLE2_INITIAL_FREQ_GHZ)
    baseline_alloc = {
        name: StageAllocation(1, baseline_level) for name in SIRIUS_STAGES
    }
    boosts = [
        (stage, technique, allocation)
        for stage in SIRIUS_STAGES
        for technique, allocation in _boost_allocations(stage).items()
    ]
    cells = tuple(
        ScenarioSpec.latency(
            "sirius",
            "static",
            ("constant", rate),
            duration_s,
            seed=seed,
            allocation=allocation,
        )
        for allocation in [baseline_alloc] + [alloc for _, _, alloc in boosts]
        for seed in seeds
    )

    def reduce(results: Sequence[RunResult]) -> Fig02Result:
        means = seed_means(results, len(seeds))
        baseline_mean, _ = next(means)
        bars = tuple(
            Fig02Bar(
                stage=stage,
                technique=technique,
                normalized_latency=next(means)[0] / baseline_mean,
                allocation=allocation,
            )
            for stage, technique, allocation in boosts
        )
        return Fig02Result(baseline_mean_s=baseline_mean, bars=bars)

    return Figure(cells=cells, reduce=reduce, render=render_fig02)


def render_fig02(result: Fig02Result) -> str:
    """ASCII rendering of Figure 2."""
    rows = [
        (
            f"Boost {bar.stage} only",
            bar.technique,
            f"{bar.normalized_latency:.3f}",
        )
        for bar in result.bars
    ]
    table = format_table(
        ["configuration", "technique", "normalized latency"], rows
    )
    best = result.best()
    return (
        format_heading(
            "Figure 2: normalized Sirius latency, single-stage boosting"
        )
        + f"\nbaseline (all stages 1.8 GHz) mean latency: "
        f"{result.baseline_mean_s:.3f}s\n"
        + table
        + f"\nbest decision: {best.technique}-boost {best.stage} "
        f"({best.normalized_latency:.3f}x baseline)"
    )
