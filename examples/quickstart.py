#!/usr/bin/env python3
"""Quickstart: PowerChief vs the stage-agnostic baseline in ~30 lines.

Builds the paper's Sirius pipeline (ASR -> IMM -> QA, one instance per
stage at 1.8 GHz under the Table-2 13.56 W budget), drives it with
high Poisson load for 10 simulated minutes, and compares the static
power allocation against the PowerChief runtime.

Run:  python examples/quickstart.py
"""

from repro import ScenarioSpec, run_scenario
from repro.workloads import sirius_load_levels


def main() -> None:
    rate = sirius_load_levels().high_qps
    print(f"Sirius under high load ({rate:.2f} queries/s), 13.56 W budget\n")

    load = ("constant", rate)
    baseline = run_scenario(
        ScenarioSpec.latency("sirius", "static", load, duration_s=600.0, seed=3)
    )
    powerchief = run_scenario(
        ScenarioSpec.latency("sirius", "powerchief", load, duration_s=600.0, seed=3)
    )

    print(f"{'policy':<12} {'mean':>9} {'p99':>9} {'avg power':>10}")
    for run in (baseline, powerchief):
        print(
            f"{run.policy:<12} {run.latency.mean:>8.2f}s "
            f"{run.latency.p99:>8.2f}s {run.average_power_watts:>8.2f} W"
        )

    improvement = baseline.latency.mean / powerchief.latency.mean
    tail = baseline.latency.p99 / powerchief.latency.p99
    print(
        f"\nPowerChief improves mean latency {improvement:.1f}x and "
        f"99th-percentile latency {tail:.1f}x under the same power budget."
    )


if __name__ == "__main__":
    main()
