"""Benchmark: power-budget sweep — when does intelligence stop mattering?

Not a paper figure, but the natural question the paper's premise raises:
PowerChief exists because the budget is *constrained*; as the cap rises
toward over-provisioning, the static allocation catches up and the
improvement from intelligent allocation should shrink.  This sweep maps
that curve for Sirius under high load.

The shape to verify: large improvement at the Table-2 budget, monotone-ish
decay, and near-parity (< 2x) once the budget funds every stage at a
comfortable frequency.
"""

from __future__ import annotations

from repro.experiments.parallel import run_cells
from repro.experiments.report import format_heading, format_table
from repro.scenario import ScenarioSpec
from repro.workloads.sirius import sirius_load_levels

from benchmarks.conftest import engine_workers, run_once, show

#: Table-2 budget and progressively relaxed caps. 13.56 W = 3x 1.8 GHz;
#: 30.1 W = 3x 2.4 GHz + headroom for two floor clones.
BUDGETS = (13.56, 18.0, 24.0, 32.0, 45.0)


def equal_split_allocation(budget_watts: float):
    """The stage-agnostic deployment for a given cap: the budget divided
    equally across the three stages, each running one instance at the
    highest affordable level (Table 2's construction, generalised)."""
    from repro.cluster.frequency import HASWELL_LADDER
    from repro.cluster.power import DEFAULT_POWER_MODEL
    from repro.scenario import StageAllocation
    from repro.workloads.sirius import SIRIUS_STAGES

    level = DEFAULT_POWER_MODEL.max_level_within(
        HASWELL_LADDER, budget_watts / len(SIRIUS_STAGES)
    )
    assert level is not None
    return {name: StageAllocation(1, level) for name in SIRIUS_STAGES}


def run_sweep(duration_s: float = 600.0, seed: int = 3):
    rate = sirius_load_levels().high_qps
    specs = [
        ScenarioSpec.latency(
            "sirius",
            policy,
            ("constant", rate),
            duration_s,
            seed=seed,
            budget_watts=budget,
            allocation=equal_split_allocation(budget),
        )
        for budget in BUDGETS
        for policy in ("static", "powerchief")
    ]
    report = run_cells(specs, max_workers=engine_workers(len(specs)))
    results = report.results()
    curve = {}
    for index, budget in enumerate(BUDGETS):
        baseline, chief = results[2 * index], results[2 * index + 1]
        curve[budget] = (
            baseline.latency.mean,
            chief.latency.mean,
            baseline.latency.mean / chief.latency.mean,
        )
    return curve


def test_budget_sweep(benchmark):
    curve = run_once(benchmark, run_sweep)
    rows = [
        (f"{budget:g} W", f"{base:.2f}s", f"{chief:.2f}s", f"{gain:.1f}x")
        for budget, (base, chief, gain) in curve.items()
    ]
    show(
        format_heading(
            "Budget sweep: PowerChief improvement vs power cap (Sirius, high load)"
        )
        + "\n"
        + format_table(
            ["budget", "static mean", "powerchief mean", "improvement"], rows
        )
    )
    gains = [gain for _, _, gain in curve.values()]
    # Constrained regime: order-of-magnitude improvement at Table 2's cap.
    assert gains[0] > 8.0
    # The tightest budget is where intelligence matters the most.
    assert gains[0] == max(gains)
    # Relaxing the cap lets the static allocation claw back most of the
    # gap (the high load stays near even the 2.4 GHz deployment's
    # saturation, so parity is never quite reached).
    assert gains[-1] < gains[0] / 3.0
    # PowerChief itself keeps improving (or holding) as power is added.
    chiefs = [chief for _, chief, _ in curve.values()]
    assert chiefs[-1] <= chiefs[0] * 1.1
