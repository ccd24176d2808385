"""Benchmark: Section 7.2 — scaling out by sharding.

"The boosting decision may become a bottleneck when the number of
services scales beyond a certain point.  In that case, we can duplicate
the services into multiple shardings across CMP servers and use
PowerChief to manage them separately with acceptable overhead."

Two measurements:

* the controller's per-decision cost grows with the number of instances
  it manages (ranking is at least linear), so a single command center
  over the whole fleet gets slower as the fleet grows;
* a sharded deployment — one PowerChief per replica — serves N× the load
  at (approximately) the single-replica latency, with each shard's
  per-decision work fixed and every per-shard budget intact.
"""

from __future__ import annotations

import time

from repro.cluster.frequency import HASWELL_LADDER
from repro.cluster.power import DEFAULT_POWER_MODEL
from repro.core.bottleneck import BottleneckIdentifier
from repro.core.controller import ControllerConfig
from repro.experiments.parallel import run_cells
from repro.experiments.report import format_heading, format_table
from repro.scenario import ScenarioSpec, StackBuilder, StageAllocation
from repro.workloads.sirius import SIRIUS_STAGES, sirius_load_levels

from benchmarks.conftest import engine_workers, run_once, show

LEVEL_1_8 = HASWELL_LADDER.level_of(1.8)


def ranking_cost(n_instances_per_stage: int, repeats: int = 200) -> float:
    """Mean seconds per full metric ranking of a pool of that size."""
    n_instances = len(SIRIUS_STAGES) * n_instances_per_stage
    spec = ScenarioSpec.latency(
        "sirius",
        "static",
        ("constant", 1.0),
        10.0,
        # The whole pool at 1.8 GHz, funded exactly.
        budget_watts=n_instances * DEFAULT_POWER_MODEL.power(1.8),
        allocation={
            stage: StageAllocation(count=n_instances_per_stage, level=LEVEL_1_8)
            for stage in SIRIUS_STAGES
        },
        n_cores=n_instances,
    )
    builder = StackBuilder(spec).build()
    identifier = BottleneckIdentifier(builder.command_center)
    start = time.perf_counter()
    for _ in range(repeats):
        identifier.ranked(builder.application)
    return (time.perf_counter() - start) / repeats


def sharded_spec(
    n_shards: int, duration_s: float = 400.0, seed: int = 3
) -> ScenarioSpec:
    """N shards under N x the single-replica high load."""
    return ScenarioSpec.latency(
        "sirius",
        "powerchief",
        ("constant", sirius_load_levels().high_qps * n_shards),
        duration_s,
        seed=seed,
        controller=ControllerConfig(adjust_interval_s=25.0, balance_threshold_s=0.25),
        shards=n_shards,
    )


def run_all():
    # Ranking cost is a perf_counter micro-measure: keep it in-process so
    # pool scheduling noise cannot contaminate the timings.
    costs = {n: ranking_cost(n) for n in (1, 4, 16, 64)}
    report = run_cells(
        [sharded_spec(1), sharded_spec(4)], max_workers=engine_workers(2)
    )
    single, sharded = report.results()
    return costs, single, sharded


def test_scalability_and_sharding(benchmark):
    costs, single, sharded = run_once(benchmark, run_all)
    single_completed = single.queries_completed
    single_mean, single_p99 = single.latency.mean, single.latency.p99
    sharded_completed = sharded.queries_completed
    sharded_mean, sharded_p99 = sharded.latency.mean, sharded.latency.p99

    show(
        format_heading("Per-decision ranking cost vs fleet size (one command center)")
        + "\n"
        + format_table(
            ["instances", "ranking cost"],
            [(3 * n, f"{cost * 1e6:.1f} us") for n, cost in costs.items()],
        )
        + "\n\n"
        + format_heading("Sharded deployment: 4x load on 4 shards vs 1x on 1")
        + "\n"
        + format_table(
            ["deployment", "queries", "mean latency", "p99 latency"],
            [
                (
                    "1 shard, 1x load",
                    single_completed,
                    f"{single_mean:.3f}s",
                    f"{single_p99:.3f}s",
                ),
                (
                    "4 shards, 4x load",
                    sharded_completed,
                    f"{sharded_mean:.3f}s",
                    f"{sharded_p99:.3f}s",
                ),
            ],
        )
    )

    # Ranking cost grows with fleet size: a single command center does
    # not scale for free...
    assert costs[64] > 4.0 * costs[1]
    # ... while sharding holds latency flat at 4x the load (within noise).
    assert sharded_completed > 3 * single_completed
    assert sharded_mean <= 1.35 * single_mean
