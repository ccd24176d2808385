#!/usr/bin/env python3
"""Web Search power conservation under a 250 ms QoS (Figure 14 scenario).

Runs the Table-3 Web Search deployment — one aggregation service and ten
scatter-gather leaf services at 2.4 GHz — under three policies (no
control, Pegasus, PowerChief-conserve) and prints the latency/power
timelines plus the power-saving summary.

Run:  python examples/websearch_power_capping.py
"""

from repro.scenario import ScenarioSpec, run_scenario
from repro.scenario.config import TABLE3_WEBSEARCH


POLICIES = ("baseline", "pegasus", "powerchief")


def main() -> None:
    print(
        "Web Search (1 AGG + 10 scatter-gather LEAF instances @2.4 GHz), "
        f"QoS {TABLE3_WEBSEARCH.qos_target_s * 1000:.0f} ms, "
        f"adjust interval {TABLE3_WEBSEARCH.adjust_interval_s:g} s\n"
    )
    runs = {
        policy: run_scenario(
            ScenarioSpec.qos("websearch", policy, 8.0, duration_s=200.0, seed=3)
        )
        for policy in POLICIES
    }

    print(f"{'policy':<12} {'lat/QoS':>8} {'power/peak':>11} {'saving':>8} {'violations':>11}")
    baseline_power = runs["baseline"].average_power_fraction
    for policy, run in runs.items():
        saving = (baseline_power - run.average_power_fraction) / baseline_power
        print(
            f"{policy:<12} {run.latency.mean / run.qos_target_s:>8.2f} "
            f"{run.average_power_fraction:>11.3f} {saving * 100:>7.1f}% "
            f"{run.violation_fraction * 100:>10.1f}%"
        )

    print("\nTimeline (latency fraction | power fraction):")
    print(f"{'t(s)':>6}  " + "  ".join(f"{policy:<13}" for policy in POLICIES))
    reference = runs["baseline"].qos_samples
    for index in range(0, len(reference), 5):
        row = [f"{reference[index].time:>6.0f}"]
        for policy in POLICIES:
            sample = runs[policy].qos_samples[index]
            latency = (
                " -- "
                if sample.latency_fraction is None
                else f"{sample.latency_fraction:.2f}"
            )
            row.append(f"{latency}|{sample.power_fraction:.2f}".ljust(13))
        print("  ".join(row))

    chief = runs["powerchief"]
    print(
        f"\nPowerChief converged to "
        f"{chief.average_power_fraction * 100:.0f}% of peak power by "
        f"de-boosting and withdrawing leaf instances while keeping the "
        f"windowed latency under the 250 ms QoS "
        f"({chief.violation_fraction * 100:.1f}% of samples violated)."
    )


if __name__ == "__main__":
    main()
