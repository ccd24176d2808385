#!/usr/bin/env python3
"""Sirius latency mitigation: watch PowerChief's decisions as load moves.

Reproduces the Figure-11 scenario interactively: the Sirius pipeline
under the paper's fluctuating load trace (including the 175-275 s
low-load valley), with a narration of every boosting, recycling and
withdraw action PowerChief takes, followed by the per-stage pool state
over time.

Run:  python examples/sirius_latency_mitigation.py
"""

from repro.core import (
    FrequencyChangeAction,
    InstanceLaunchAction,
    InstanceWithdrawAction,
    SkipAction,
)
from repro.scenario import ScenarioSpec, run_scenario
from repro.workloads import sirius_load_levels
from repro.workloads.traces import FIG11_DURATION_S, fig11_trace


def narrate(action) -> str:
    if isinstance(action, FrequencyChangeAction):
        direction = "up" if action.to_level > action.from_level else "down"
        return (
            f"[{action.time:6.0f}s] {action.reason:<8} {action.instance_name}: "
            f"level {action.from_level} -> {action.to_level} ({direction})"
        )
    if isinstance(action, InstanceLaunchAction):
        return (
            f"[{action.time:6.0f}s] launch   {action.instance_name} at level "
            f"{action.level}, stealing {action.stolen_jobs} queued queries"
        )
    if isinstance(action, InstanceWithdrawAction):
        return (
            f"[{action.time:6.0f}s] withdraw {action.instance_name} "
            f"(redirected {action.redirected_jobs} queries)"
        )
    assert isinstance(action, SkipAction)
    return f"[{action.time:6.0f}s] skip     ({action.reason})"


def main() -> None:
    trace = fig11_trace(sirius_load_levels().high_qps)
    print("Sirius under the Figure-11 fluctuating load trace (900 s)\n")

    result = run_scenario(
        ScenarioSpec.latency(
            "sirius",
            "powerchief",
            trace,
            FIG11_DURATION_S,
            seed=3,
            sample_interval_s=75.0,
        )
    )

    print("PowerChief decision log:")
    for action in result.actions:
        if isinstance(action, SkipAction):
            continue  # keep the narration to real actions
        print(" ", narrate(action))

    print("\nPer-stage pool state over time:")
    header = f"{'t(s)':>6}  " + "  ".join(f"{name:<24}" for name in ("ASR", "IMM", "QA"))
    print(header)
    for sample in result.state_samples:
        cells = []
        for stage_name in ("ASR", "IMM", "QA"):
            snapshot = sample.stage(stage_name)
            freqs = "/".join(f"{ghz:.1f}" for _, ghz in snapshot.frequencies)
            cells.append(f"{snapshot.instance_count} inst [{freqs}]".ljust(24))
        print(f"{sample.time:>6.0f}  " + "  ".join(cells))

    print(
        f"\nEnd-to-end latency: mean {result.latency.mean:.2f}s, "
        f"p99 {result.latency.p99:.2f}s over {result.latency.count} queries; "
        f"average draw {result.average_power_watts:.2f} W "
        f"(budget 13.56 W)."
    )


if __name__ == "__main__":
    main()
