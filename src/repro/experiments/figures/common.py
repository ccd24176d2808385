"""Shared machinery for the figure experiments.

Every figure and table is a :class:`Figure`: the scenario cells it needs,
a reducer that builds its result object from those cells' results, and
its render.  The figure runner (:func:`repro.experiments.campaign.run_figures`)
executes the cells; nothing here runs a simulation.

Most of the evaluation reports *latency improvement*: the static
stage-agnostic baseline's latency divided by a policy's latency, per load
level, for the average and the 99th percentile.  :func:`improvement_cells`
lists that grid's runs for any application and
:func:`reduce_improvement` turns their results into the grid, averaging
latencies across seeds before taking ratios so that one lucky tail sample
cannot flip a cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.errors import ExperimentError
from repro.scenario.results import RunResult
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "DEFAULT_SEEDS",
    "Figure",
    "ImprovementCell",
    "improvement_cells",
    "reduce_improvement",
    "seed_means",
]

#: Seeds used when a figure experiment does not specify its own.
DEFAULT_SEEDS = (3, 5)


@dataclass(frozen=True)
class Figure:
    """One figure or table of the evaluation, as data.

    ``reduce`` receives the results of ``cells``, in cell order, and
    returns the figure's result object; ``render`` turns that object into
    the figure's text.  A static table has no cells.
    """

    cells: tuple[ScenarioSpec, ...]
    reduce: Callable[[Sequence[Any]], Any]
    render: Callable[[Any], str]


@dataclass(frozen=True)
class ImprovementCell:
    """One (policy, load level) cell of an improvement figure."""

    app: str
    policy: str
    load: str
    mean_latency_s: float
    p99_latency_s: float
    avg_improvement: float
    p99_improvement: float


def seed_means(
    results: Sequence[RunResult], n_seeds: int
) -> Iterator[tuple[float, float]]:
    """(mean latency, p99 latency) of each consecutive group of
    ``n_seeds`` runs, averaged over the group."""
    for start in range(0, len(results), n_seeds):
        runs = results[start : start + n_seeds]
        yield (
            sum(run.latency.mean for run in runs) / len(runs),
            sum(run.latency.p99 for run in runs) / len(runs),
        )


def improvement_cells(
    app: str,
    loads: Mapping[str, float],
    policies: Sequence[str],
    duration_s: float,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> tuple[ScenarioSpec, ...]:
    """The runs of an improvement grid, in :func:`reduce_improvement` order.

    ``loads`` maps load-level names to arrival rates.  Per level, the
    static baseline comes first, then each policy, each over every seed.
    """
    if not seeds:
        raise ExperimentError("need at least one seed")
    return tuple(
        ScenarioSpec.latency(app, policy, ("constant", rate), duration_s, seed=seed)
        for rate in loads.values()
        for policy in ("static", *policies)
        for seed in seeds
    )


def reduce_improvement(
    app: str,
    loads: Mapping[str, float],
    policies: Sequence[str],
    n_seeds: int,
    results: Sequence[RunResult],
) -> tuple[ImprovementCell, ...]:
    """Improvement of each policy over the static baseline per load level.

    ``results`` are the runs of :func:`improvement_cells` in its order.
    Passing "static" in ``policies`` reports the baseline's own (1.0x)
    row.
    """
    means = seed_means(results, n_seeds)
    cells: list[ImprovementCell] = []
    for load_name in loads:
        base_mean, base_p99 = next(means)
        for policy in policies:
            mean, p99 = next(means)
            cells.append(
                ImprovementCell(
                    app=app,
                    policy=policy,
                    load=load_name,
                    mean_latency_s=mean,
                    p99_latency_s=p99,
                    avg_improvement=base_mean / mean,
                    p99_improvement=base_p99 / p99,
                )
            )
    return tuple(cells)
