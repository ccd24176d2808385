"""Figure 10: Sirius latency improvement across policies and load levels.

"Compared to other boosting techniques, it is clear that PowerChief
achieves the most latency reduction under all loads" — frequency
boosting, instance boosting and PowerChief, each against the
stage-agnostic baseline, at the paper's three load levels.  The
across-load averages are the paper's Section 8.2 headline numbers
(20.3x average, 13.3x tail on their testbed).
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
from repro.workloads.levels import LoadLevels
from repro.workloads.sirius import sirius_load_levels

__all__ = [
    "ImprovementFigureResult",
    "figure",
    "improvement_figure",
    "render_improvement_figure",
]

POLICIES = ("freq-boost", "inst-boost", "powerchief")
LOADS = ("low", "medium", "high")


@dataclass(frozen=True)
class ImprovementFigureResult:
    """Shared result shape for Figures 10 and 12."""

    app: str
    figure: str
    cells: tuple[ImprovementCell, ...]

    def cell(self, policy: str, load: str) -> ImprovementCell:
        for candidate in self.cells:
            if candidate.policy == policy and candidate.load == load:
                return candidate
        raise ExperimentError(f"no cell for {policy}@{load}")

    def average_improvement(self, policy: str) -> tuple[float, float]:
        """(avg, p99) improvement of a policy averaged across load levels."""
        cells = [cell for cell in self.cells if cell.policy == policy]
        if not cells:
            raise ExperimentError(f"no cells for policy {policy!r}")
        avg = sum(cell.avg_improvement for cell in cells) / len(cells)
        p99 = sum(cell.p99_improvement for cell in cells) / len(cells)
        return avg, p99


def improvement_figure(
    app: str,
    name: str,
    levels: LoadLevels,
    duration_s: float,
    seeds: Sequence[int],
    policies: Sequence[str],
) -> Figure:
    """The Figure-10/12 grid: each policy against the static baseline at
    the application's three load levels."""
    loads = {
        "low": levels.low_qps,
        "medium": levels.medium_qps,
        "high": levels.high_qps,
    }
    return Figure(
        cells=improvement_cells(app, loads, policies, duration_s, seeds),
        reduce=lambda results: ImprovementFigureResult(
            app=app,
            figure=name,
            cells=reduce_improvement(app, loads, policies, len(seeds), results),
        ),
        render=render_improvement_figure,
    )


def figure(
    duration_s: float = 600.0,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    policies: Sequence[str] = POLICIES,
) -> Figure:
    """The Figure-10 grid for Sirius."""
    return improvement_figure(
        "sirius", "Figure 10", sirius_load_levels(), duration_s, seeds, policies
    )


def render_improvement_figure(result: ImprovementFigureResult) -> str:
    """ASCII rendering shared by Figures 10 and 12."""
    sections = [
        format_heading(
            f"{result.figure}: latency improvement for {result.app} "
            f"(vs stage-agnostic baseline)"
        )
    ]
    for load in LOADS:
        rows = []
        for policy in POLICIES:
            cell = result.cell(policy, load)
            rows.append(
                (
                    policy,
                    f"{cell.avg_improvement:.2f}x",
                    f"{cell.p99_improvement:.2f}x",
                    f"{cell.mean_latency_s:.3f}s",
                )
            )
        sections.append(f"({load} load)")
        sections.append(
            format_table(
                ["policy", "avg latency", "99th latency", "mean latency"], rows
            )
        )
    rows = []
    for policy in POLICIES:
        avg, p99 = result.average_improvement(policy)
        rows.append((policy, f"{avg:.2f}x", f"{p99:.2f}x"))
    sections.append("(across-load averages — the paper's headline numbers)")
    sections.append(format_table(["policy", "avg latency", "99th latency"], rows))
    return "\n".join(sections)
