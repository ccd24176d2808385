"""Figure 4: frequency vs instance boosting under low and high load.

"During the low load, frequency boosting improves the average and 99%
percentile latency ... however instance boosting only achieves [less].
Whereas during the high load, instance boosting improves [latency far
more] compared to ... frequency boosting due to the dominate queuing
delay."  This is the observation that motivates the adaptive boosting
decision engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ExperimentError
from repro.experiments.figures.common import (
    DEFAULT_SEEDS,
    Figure,
    ImprovementCell,
    improvement_cells,
    reduce_improvement,
)
from repro.experiments.report import format_heading, format_table
from repro.workloads.sirius import sirius_load_levels

__all__ = ["Fig04Result", "figure", "render_fig04"]

POLICIES = ("freq-boost", "inst-boost")


@dataclass(frozen=True)
class Fig04Result:
    cells: tuple[ImprovementCell, ...]

    def cell(self, policy: str, load: str) -> ImprovementCell:
        for candidate in self.cells:
            if candidate.policy == policy and candidate.load == load:
                return candidate
        raise ExperimentError(f"no cell for {policy}@{load}")


def figure(
    duration_s: float = 600.0,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> Figure:
    """Frequency and instance boosting at low and high Sirius load."""
    levels = sirius_load_levels()
    loads = {"low": levels.low_qps, "high": levels.high_qps}
    return Figure(
        cells=improvement_cells("sirius", loads, POLICIES, duration_s, seeds),
        reduce=lambda results: Fig04Result(
            cells=reduce_improvement(
                "sirius", loads, POLICIES, len(seeds), results
            )
        ),
        render=render_fig04,
    )


def render_fig04(result: Fig04Result) -> str:
    """ASCII rendering of Figure 4's two panels."""
    sections = [format_heading("Figure 4: boosting-technique tradeoff (Sirius)")]
    for load in ("low", "high"):
        rows = []
        for policy in POLICIES:
            cell = result.cell(policy, load)
            rows.append(
                (
                    policy,
                    f"{cell.avg_improvement:.2f}x",
                    f"{cell.p99_improvement:.2f}x",
                )
            )
        sections.append(f"({load} load)")
        sections.append(
            format_table(["technique", "avg latency", "99th latency"], rows)
        )
    return "\n".join(sections)
