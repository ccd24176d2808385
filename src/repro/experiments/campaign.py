"""Full evaluation campaigns: every figure and table in one run.

``run_campaign`` regenerates the complete evaluation section — Figures
2-14 and Tables 1/4 — renders each as text, and optionally archives the
renders plus a combined Markdown report to a directory.  This is what
``python -m repro campaign`` drives; the per-figure shape assertions live
in the benchmark suite, not here.

The campaign executes through the parallel cell engine
(:mod:`repro.experiments.parallel`): each artefact of
:func:`default_registry` becomes a cell, ``max_workers`` fans them out
across processes, and ``cache_dir`` memoizes finished artefacts so a
re-run only recomputes what changed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.errors import ExperimentError
from repro.obs.metrics import MetricsRegistry
from repro.experiments.parallel import CellOutcome, ResultCache, run_cells
from repro.experiments.report import format_heading, format_table

__all__ = ["CampaignResult", "default_registry", "run_campaign"]


@dataclass
class CampaignResult:
    """Rendered artefacts of one campaign run, plus where the time went."""

    renders: dict[str, str] = field(default_factory=dict)
    output_dir: Optional[Path] = None
    #: (artefact, elapsed seconds, source) per artefact, in artefact order.
    timings: list[tuple[str, float, str]] = field(default_factory=list)
    cache_hits: int = 0
    computed: int = 0
    wall_clock_s: float = 0.0

    @property
    def artefacts(self) -> list[str]:
        return sorted(self.renders)

    def render(self, name: str) -> str:
        try:
            return self.renders[name]
        except KeyError:
            raise ExperimentError(f"campaign has no artefact {name!r}") from None

    def combined_report(self) -> str:
        """All renders concatenated into one Markdown document."""
        sections = ["# PowerChief reproduction — evaluation campaign\n"]
        for name in self.artefacts:
            sections.append(f"## {name}\n\n```\n{self.renders[name]}\n```\n")
        if self.timings:
            sections.append(f"## timing\n\n```\n{self.timing_report()}\n```\n")
        return "\n".join(sections)

    def timing_report(self) -> str:
        """Per-artefact wall-clock breakdown, slowest first."""
        rows = [
            (name, f"{elapsed:.2f}s", source)
            for name, elapsed, source in sorted(
                self.timings, key=lambda item: item[1], reverse=True
            )
        ]
        summary = (
            f"{len(self.timings)} artefacts: {self.cache_hits} cached, "
            f"{self.computed} computed, {self.wall_clock_s:.2f}s wall clock"
        )
        return (
            format_heading("Campaign timing")
            + "\n"
            + format_table(["artefact", "elapsed", "source"], rows)
            + "\n"
            + summary
        )


def default_registry() -> dict[str, Callable[[], str]]:
    """The full evaluation: every figure/table keyed by artefact id."""
    from repro.experiments import figures as fig

    return {
        "fig02": lambda: fig.render_fig02(fig.run_fig02()),
        "fig04": lambda: fig.render_fig04(fig.run_fig04()),
        "fig10": lambda: fig.render_improvement_figure(fig.run_fig10()),
        "fig11": lambda: fig.render_fig11(fig.run_fig11()),
        "fig12": lambda: fig.render_fig12(fig.run_fig12()),
        "fig13": lambda: fig.render_fig13(fig.run_fig13()),
        "fig14": lambda: fig.render_fig14(fig.run_fig14()),
        "table1": fig.render_table1,
        "table4": fig.render_table4,
    }


def run_campaign(
    output_dir: Optional[str | Path] = None,
    max_workers: int = 1,
    cache_dir: Union[ResultCache, str, Path, None] = None,
    progress: Optional[Callable[[CellOutcome], None]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> CampaignResult:
    """Run every registered artefact; optionally archive the renders.

    When ``output_dir`` is given, each artefact is written as
    ``<name>.txt`` alongside a combined ``report.md``.  ``max_workers``
    and ``cache_dir`` configure the parallel engine the artefact cells
    run through.  ``metrics`` routes the engine's cache and timing
    bookkeeping through a :class:`~repro.obs.metrics.MetricsRegistry`.
    """
    started = time.perf_counter()
    result = CampaignResult()
    names = sorted(default_registry())
    report = run_cells(
        names,
        max_workers=max_workers,
        cache=cache_dir,
        progress=progress,
        registry=metrics,
    )
    for name, outcome in zip(names, report.outcomes):
        result.renders[name] = outcome.payload["render"]
        result.timings.append((name, outcome.elapsed_s, outcome.source))
    result.cache_hits = report.cache_hits
    result.computed = report.computed
    result.wall_clock_s = time.perf_counter() - started
    if output_dir is not None:
        target = Path(output_dir)
        target.mkdir(parents=True, exist_ok=True)
        for name, text in result.renders.items():
            (target / f"{name}.txt").write_text(text + "\n")
        (target / "report.md").write_text(result.combined_report())
        result.output_dir = target
    return result
