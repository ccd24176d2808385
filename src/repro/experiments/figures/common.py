"""Shared machinery for the figure experiments.

Most of the evaluation reports *latency improvement*: the static
stage-agnostic baseline's latency divided by a policy's latency, per load
level, for the average and the 99th percentile.  ``improvement_grid``
produces that grid for any application, averaging latencies across seeds
before taking ratios so that one lucky tail sample cannot flip a cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import ExperimentError
from repro.scenario.builder import run_scenario
from repro.scenario.results import RunResult
from repro.scenario.spec import ScenarioSpec

__all__ = ["ImprovementCell", "seed_averaged_latency", "improvement_grid"]

#: Seeds used when a figure experiment does not specify its own.
DEFAULT_SEEDS = (3, 5)


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


def seed_averaged_latency(
    app: str,
    policy: str,
    rate_qps: float,
    duration_s: float,
    seeds: Sequence[int],
    **kwargs,
) -> tuple[float, float, list[RunResult]]:
    """(mean latency, p99 latency) averaged over seeds, plus the raw runs."""
    if not seeds:
        raise ExperimentError("need at least one seed")
    runs = [
        run_scenario(
            ScenarioSpec.latency(
                app, policy, ("constant", rate_qps), duration_s, seed=seed, **kwargs
            )
        )
        for seed in seeds
    ]
    mean = sum(run.latency.mean for run in runs) / len(runs)
    p99 = sum(run.latency.p99 for run in runs) / len(runs)
    return mean, p99, runs


def improvement_grid(
    app: str,
    loads: Mapping[str, float],
    policies: Sequence[str],
    duration_s: float,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> list[ImprovementCell]:
    """Improvement of each policy over the static baseline per load level.

    ``loads`` maps load-level names to arrival rates.  The static baseline
    is run implicitly for every level; passing "static" in ``policies``
    additionally reports the baseline's own (1.0x) row.
    """
    cells: list[ImprovementCell] = []
    for load_name, rate in loads.items():
        base_mean, base_p99, _ = seed_averaged_latency(
            app, "static", rate, duration_s, seeds
        )
        for policy in policies:
            if policy == "static":
                mean, p99 = base_mean, base_p99
            else:
                mean, p99, _ = seed_averaged_latency(
                    app, policy, rate, duration_s, seeds
                )
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
    return cells
