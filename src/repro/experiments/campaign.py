"""Full evaluation campaigns: every figure, table and ablation in one run.

``run_campaign`` regenerates the complete evaluation section — Figures
2-14, Tables 1/4 and the ablations and sweeps — renders each as text,
and optionally archives the renders plus a combined Markdown report to a
directory.  This is what ``python -m repro campaign`` drives; the
paper's claims are checked on the same results by
``tests/integration/test_paper_claims.py``.

Every figure of :func:`default_registry` is a
:class:`~repro.experiments.figures.common.Figure`: scenario cells plus a
reducer.  :func:`run_figures` is the one runner for figures — the
campaign, ``repro figures``, the headline summary and the figure tests
all go through it.  It runs the union of the figures' cells
through the parallel cell engine (:mod:`repro.experiments.parallel`)
once per distinct digest, so ``max_workers`` fans out cells and
``cache_dir`` memoizes each run: a changed figure recomputes exactly its
changed cells, and every render is rebuilt from results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Sequence, Union

from repro.errors import ExperimentError
from repro.experiments.parallel import EngineReport, ResultCache, run_cells

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.experiments.figures.common import Figure

__all__ = [
    "ARTEFACTS",
    "CampaignResult",
    "default_registry",
    "run_campaign",
    "run_figures",
]


@dataclass
class CampaignResult:
    """Rendered artefacts of one campaign run, plus its cells' report."""

    renders: dict[str, str] = field(default_factory=dict)
    report: EngineReport = field(default_factory=EngineReport)
    output_dir: Optional[Path] = None

    @property
    def artefacts(self) -> list[str]:
        return sorted(self.renders)

    def render(self, name: str) -> str:
        try:
            return self.renders[name]
        except KeyError:
            raise ExperimentError(f"campaign has no artefact {name!r}") from None

    def combined_report(self) -> str:
        """All renders and the per-cell timing in one Markdown document."""
        sections = ["# PowerChief reproduction — evaluation campaign\n"]
        for name in self.artefacts:
            sections.append(f"## {name}\n\n```\n{self.renders[name]}\n```\n")
        sections.append(f"## timing\n\n```\n{self.report.format_timing()}\n```\n")
        return "\n".join(sections)


#: Every artefact of the evaluation: its id, and the module under
#: :mod:`repro.experiments.figures` and the function there that builds
#: its :class:`Figure`.  The CLI lists these ids without importing any
#: figure module.
ARTEFACTS: dict[str, tuple[str, str]] = {
    "ablation-interference": ("ablations", "interference"),
    "ablation-intervals": ("ablations", "intervals"),
    "ablation-mechanisms": ("ablations", "mechanisms"),
    "ablation-metric": ("ablations", "metric"),
    "budget-sweep": ("ablations", "budget_sweep"),
    "fig02": ("fig02", "figure"),
    "fig04": ("fig04", "figure"),
    "fig10": ("fig10", "figure"),
    "fig11": ("fig11", "figure"),
    "fig12": ("fig12", "figure"),
    "fig13": ("fig13", "figure"),
    "fig14": ("fig14", "figure"),
    "oracle": ("ablations", "oracle"),
    "seeds": ("ablations", "seed_sensitivity"),
    "sharding": ("ablations", "sharding"),
    "table1": ("tables", "table1"),
    "table4": ("tables", "table4"),
}


def default_registry() -> dict[str, Figure]:
    """The full evaluation: every artefact of :data:`ARTEFACTS`, built."""
    return {
        name: getattr(import_module(f"repro.experiments.figures.{module}"), builder)()
        for name, (module, builder) in ARTEFACTS.items()
    }


def run_figures(
    figures: Sequence[Figure],
    max_workers: int = 1,
    cache: Union[ResultCache, str, Path, None] = None,
) -> tuple[list[Any], EngineReport]:
    """Run the figures' cells, then reduce each figure from its results.

    The union of every figure's cells goes through one :func:`run_cells`
    call with each distinct digest once, so a run two figures share is
    computed, or read from ``cache``, once.  Each reducer receives its
    own cells' results in cell order, decoded from their payloads — the
    form a cache hit takes — so a fresh and a warm run reduce the same
    values.  Returns each figure's result in figure order, and the
    engine's report.
    """
    digests = [[cell.digest() for cell in figure.cells] for figure in figures]
    unique = {
        digest: cell
        for figure, keys in zip(figures, digests)
        for digest, cell in zip(keys, figure.cells)
    }
    report = run_cells(list(unique.values()), max_workers=max_workers, cache=cache)
    results = {outcome.digest: outcome.result() for outcome in report.outcomes}
    reduced = [
        figure.reduce([results[digest] for digest in keys])
        for figure, keys in zip(figures, digests)
    ]
    return reduced, report


def run_campaign(
    output_dir: Optional[str | Path] = None,
    max_workers: int = 1,
    cache_dir: Union[ResultCache, str, Path, None] = None,
) -> CampaignResult:
    """Run every registered figure; optionally archive the renders.

    When ``output_dir`` is given, each artefact is written as
    ``<name>.txt`` alongside a combined ``report.md``.  ``max_workers``
    and ``cache_dir`` configure the parallel engine the figures' cells
    run through.
    """
    registry = default_registry()
    names = sorted(registry)
    figures = [registry[name] for name in names]
    values, report = run_figures(figures, max_workers=max_workers, cache=cache_dir)
    result = CampaignResult(
        renders={
            name: figure.render(value)
            for name, figure, value in zip(names, figures, values)
        },
        report=report,
    )
    if output_dir is not None:
        target = Path(output_dir)
        target.mkdir(parents=True, exist_ok=True)
        for name, text in result.renders.items():
            (target / f"{name}.txt").write_text(text + "\n")
        (target / "report.md").write_text(result.combined_report())
        result.output_dir = target
    return result
