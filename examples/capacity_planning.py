#!/usr/bin/env python3
"""Capacity planning with the analytical toolkit, validated by simulation.

Before deploying a pipeline you want to know: how many instances per
stage, at which frequency, under a given power cap?  This example uses
the Section-2.1 exhaustive-search allocator (M/G/1-scored) to plan a
Sirius deployment for three target loads, sanity-checks the queueing
math, and then validates the chosen plan by actually simulating it.

Run:  python examples/capacity_planning.py
"""

from repro.analysis import mg1_mean_wait, required_instances
from repro.core import best_static_allocation
from repro.scenario import ScenarioSpec, StageAllocation, run_scenario
from repro.workloads import sirius_load_levels, sirius_profiles
from repro.cluster import HASWELL_LADDER


BUDGET_WATTS = 13.56


def main() -> None:
    profiles = sirius_profiles()
    levels = sirius_load_levels()
    print(f"Sirius capacity planning under a {BUDGET_WATTS} W budget\n")

    # Back-of-envelope first: instances needed per stage at 80% cap.
    qa = next(p for p in profiles if p.name == "QA")
    for name, rate in (("low", levels.low_qps), ("high", levels.high_qps)):
        need = required_instances(rate, qa.mean_serving_time(1.8))
        wait = (
            mg1_mean_wait(rate / need, qa.mean_serving_time(1.8), qa.demand.cv2)
            if need
            else 0.0
        )
        print(
            f"  QA at 1.8 GHz, {name} load ({rate:.2f} qps): "
            f"{need} instance(s), ~{wait:.2f}s expected queueing each"
        )
    print()

    # The exhaustive search, per load level.
    print(f"{'load':<7} {'plan (stage: count@GHz)':<46} {'pred. latency':>13} {'power':>8}")
    plans = {}
    for name, rate in (
        ("low", levels.low_qps),
        ("medium", levels.medium_qps),
        ("high", levels.high_qps),
    ):
        plan = best_static_allocation(
            profiles, rate, BUDGET_WATTS, max_total_instances=16
        )
        plans[name] = plan
        pretty = ", ".join(
            f"{stage}: {count}@{HASWELL_LADDER.frequency_of(level):.1f}"
            for stage, (count, level) in plan.allocation.items()
        )
        print(
            f"{name:<7} {pretty:<46} {plan.predicted_latency_s:>12.3f}s "
            f"{plan.power_watts:>7.2f}W"
        )

    # Validate the high-load plan in the simulator.
    plan = plans["high"]
    allocation = {
        stage: StageAllocation(count, level)
        for stage, (count, level) in plan.allocation.items()
    }
    result = run_scenario(
        ScenarioSpec.latency(
            "sirius",
            "static",
            ("constant", levels.high_qps),
            duration_s=600.0,
            seed=3,
            allocation=allocation,
        )
    )
    print(
        f"\nsimulated mean latency of the high-load plan: "
        f"{result.latency.mean:.3f}s "
        f"(analytic prediction {plan.predicted_latency_s:.3f}s, "
        f"p99 {result.latency.p99:.3f}s over {result.latency.count} queries)"
    )
    error = abs(result.latency.mean - plan.predicted_latency_s) / result.latency.mean
    print(f"prediction error: {error * 100:.0f}%")


if __name__ == "__main__":
    main()
