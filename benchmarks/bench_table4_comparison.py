"""Benchmark: Table 4 — capability comparison with prior work.

Renders Table 4 and verifies this reproduction actually *has* the five
capabilities the paper claims for PowerChief, by exercising each through
the public API (rather than just printing a static matrix).
"""

from __future__ import annotations

from repro.cluster.frequency import HASWELL_LADDER
from repro.core.controller import ControllerConfig
from repro.experiments.figures import TABLE4_SYSTEMS, render_table4
from repro.scenario import ScenarioSpec, StackBuilder
from repro.workloads.sirius import sirius_load_levels

from benchmarks.conftest import run_once, show


def exercise_capabilities():
    """One short PowerChief run touching all five Table-4 capabilities."""
    spec = ScenarioSpec.latency(
        "sirius",
        "powerchief",
        ("constant", sirius_load_levels().high_qps),
        200.0,
        seed=3,
        controller=ControllerConfig(adjust_interval_s=25.0, balance_threshold_s=0.25),
    )
    builder = StackBuilder(spec)
    builder.execute()
    return builder.application, builder.budget, builder.controller


def test_table4_capabilities(benchmark):
    show(render_table4())
    app, budget, controller = run_once(benchmark, exercise_capabilities)

    powerchief_row = next(s for s in TABLE4_SYSTEMS if s.system == "PowerChief")
    # The matrix claims all five capabilities...
    assert all(
        (
            powerchief_row.multi_stage_awareness,
            powerchief_row.power_constraint,
            powerchief_row.commodity_hardware,
            powerchief_row.runtime_system,
            powerchief_row.power_management,
        )
    )
    # ... and the run exhibits them:
    # multi-stage awareness — per-stage pools managed independently;
    assert len(app.stages) == 3
    # power constraint — the budget invariant held throughout;
    budget.assert_within()
    # runtime system — the control loop actually ticked;
    assert controller.ticks >= 7
    # power management — DVFS/launch actions were taken.
    assert controller.actions
    # commodity hardware — only the stock DVFS ladder was used.
    for instance in app.running_instances():
        HASWELL_LADDER.validate_level(instance.level)

    # Exactly one prior system per distinguishing gap (sanity of matrix).
    assert sum(1 for s in TABLE4_SYSTEMS if s.multi_stage_awareness) == 3
    assert sum(1 for s in TABLE4_SYSTEMS if s.power_constraint) == 3
