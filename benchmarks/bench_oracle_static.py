"""Benchmark: Section 2.1 — exhaustive-search static allocation vs PowerChief.

"Even if the optimal power allocation can be found through exhaustive
search, the undetermined runtime factors such as load burst ... undermine
the effectiveness of the static power allocation."

Three contenders under high Sirius load and the Table-2 budget:

* the **clairvoyant oracle** — the exhaustive search given the *actual*
  arrival rate (knowledge no deployed system has);
* the **stale oracle** — the same search given a low-load forecast, the
  realistic failure mode the paper describes;
* **PowerChief** — no forecast at all.

Shape to verify: the clairvoyant oracle wins (perfect knowledge should
win), PowerChief lands within a modest factor of it without any
knowledge, and the stale oracle collapses by an order of magnitude.
"""

from __future__ import annotations

from repro.core.oracle import best_static_allocation
from repro.experiments.parallel import run_cells
from repro.experiments.report import format_heading, format_table
from repro.scenario import ScenarioSpec, StageAllocation
from repro.workloads.sirius import sirius_load_levels, sirius_profiles

from benchmarks.conftest import engine_workers, run_once, show


def to_runner_allocation(plan):
    return {
        name: StageAllocation(count, level)
        for name, (count, level) in plan.allocation.items()
    }


def run_comparison(duration_s: float = 600.0, seed: int = 3):
    profiles = sirius_profiles()
    levels = sirius_load_levels()
    rate = levels.high_qps
    trace = ("constant", rate)

    clairvoyant = best_static_allocation(
        profiles, rate, 13.56, max_total_instances=16
    )
    stale = best_static_allocation(
        profiles, levels.low_qps, 13.56, max_total_instances=16
    )
    contenders = [
        (
            "oracle (knows the load)",
            ScenarioSpec.latency(
                "sirius", "static", trace, duration_s, seed=seed,
                allocation=to_runner_allocation(clairvoyant),
            ),
        ),
        (
            "oracle (stale low-load forecast)",
            ScenarioSpec.latency(
                "sirius", "static", trace, duration_s, seed=seed,
                allocation=to_runner_allocation(stale),
            ),
        ),
        (
            "powerchief (no forecast)",
            ScenarioSpec.latency("sirius", "powerchief", trace, duration_s, seed=seed),
        ),
    ]
    report = run_cells(
        [spec for _, spec in contenders],
        max_workers=engine_workers(len(contenders)),
    )
    runs = {
        name: result
        for (name, _), result in zip(contenders, report.results())
    }
    return clairvoyant, stale, runs


def test_oracle_vs_powerchief(benchmark):
    clairvoyant, stale, runs = run_once(benchmark, run_comparison)
    rows = [
        (name, f"{run.latency.mean:.3f}s", f"{run.latency.p99:.3f}s")
        for name, run in runs.items()
    ]
    show(
        format_heading(
            "Exhaustive-search static allocation vs PowerChief "
            "(Sirius, high load, 13.56 W)"
        )
        + "\n"
        + format_table(["allocator", "mean latency", "p99 latency"], rows)
        + f"\nclairvoyant plan: {clairvoyant.allocation}"
        + f"\nstale plan:       {stale.allocation}"
    )
    oracle = runs["oracle (knows the load)"].latency.mean
    forecast = runs["oracle (stale low-load forecast)"].latency.mean
    chief = runs["powerchief (no forecast)"].latency.mean

    # Perfect knowledge wins, as it should.
    assert oracle <= chief
    # PowerChief gets within a modest factor of it with zero knowledge.
    assert chief <= 1.5 * oracle
    # A stale forecast collapses the static allocation (Section 2.1).
    assert forecast > 5.0 * chief
