#!/usr/bin/env python3
"""Bring your own pipeline: PowerChief on a custom video-analytics app.

The library is not tied to the paper's three workloads.  This example
builds a four-stage video-analytics pipeline from scratch — decode,
object detection, tracking, and a re-identification stage — using the
low-level API directly (no experiment-harness shortcuts), wires up the
PowerChief runtime, and runs a bursty load against a 18 W budget.

It also shows the pieces you would touch to integrate a real service:
`ServiceProfile` (your offline profiling), `Application`/`Stage` (your
topology), and `CommandCenter` statistics.

Run:  python examples/custom_pipeline.py
"""

# Demonstrating the low-level API (no scenario layer) is the point of
# this example, so the staged-assembly bypass is intentional.

from repro import (
    Application,
    CommandCenter,
    ControllerConfig,
    DvfsActuator,
    HASWELL_LADDER,
    LogNormalDemand,
    Machine,
    PiecewiseLoad,
    PoissonLoadGenerator,
    PowerBudget,
    PowerChiefController,
    PowerLawSpeedup,
    QueryFactory,
    RandomStreams,
    ServiceProfile,
    Simulator,
)

FLOOR_GHZ = HASWELL_LADDER.min_ghz


def video_profiles() -> list[ServiceProfile]:
    """Offline profiles for the four stages (demands at 1.2 GHz)."""
    return [
        # Hardware-assisted decode: cheap and memory-bound.
        ServiceProfile("DECODE", LogNormalDemand(0.08, 0.3), PowerLawSpeedup(FLOOR_GHZ, 0.5)),
        # CNN detection: the heavy, compute-bound stage.
        ServiceProfile("DETECT", LogNormalDemand(0.90, 0.5), PowerLawSpeedup(FLOOR_GHZ, 1.0)),
        # Tracking: light, scales well.
        ServiceProfile("TRACK", LogNormalDemand(0.15, 0.4), PowerLawSpeedup(FLOOR_GHZ, 0.9)),
        # Re-identification: medium weight, bursty per-query cost.
        ServiceProfile("REID", LogNormalDemand(0.45, 0.7), PowerLawSpeedup(FLOOR_GHZ, 0.95)),
    ]


def main() -> None:
    sim = Simulator()
    machine = Machine(sim, n_cores=16)
    app = Application("video-analytics", sim, machine)

    level_1_8 = HASWELL_LADDER.level_of(1.8)
    profiles = video_profiles()
    for profile in profiles:
        app.add_stage(profile).launch_instance(level_1_8)

    budget = PowerBudget(machine, 18.08)  # four instances at 1.8 GHz
    command_center = CommandCenter(sim, app)
    controller = PowerChiefController(
        sim,
        app,
        command_center,
        budget,
        DvfsActuator(sim),
        ControllerConfig(
            adjust_interval_s=20.0,
            balance_threshold_s=0.3,
            withdraw_interval_s=120.0,
        ),
    )

    # A camera burst: quiet, then a 3-minute surge, then quiet again.
    trace = PiecewiseLoad([(0.0, 0.3), (120.0, 1.1), (300.0, 0.35)])
    streams = RandomStreams(7)
    generator = PoissonLoadGenerator(
        sim, app, QueryFactory(profiles, streams), trace, streams, 600.0
    )

    controller.start()
    generator.start()
    sim.run(until=600.0)
    budget.assert_within()

    summary = command_center.summary()
    print("Custom video-analytics pipeline under PowerChief\n")
    print(f"queries completed : {summary.count}")
    print(f"mean latency      : {summary.mean:.3f}s")
    print(f"p99 latency       : {summary.p99:.3f}s")
    print(f"average draw      : {machine.total_energy() / sim.now:.2f} W (budget {budget.budget_watts} W)")

    print("\nFinal deployment:")
    for stage in app.stages:
        pool = ", ".join(
            f"{inst.name}@{inst.frequency_ghz:.1f}GHz"
            for inst in stage.instances
        )
        print(f"  {stage.name:<7} {pool}")

    boosts = sum(1 for a in controller.actions if getattr(a, "reason", "") == "boost")
    launches = sum(1 for a in controller.actions if type(a).__name__ == "InstanceLaunchAction")
    withdraws = sum(1 for a in controller.actions if type(a).__name__ == "InstanceWithdrawAction")
    print(
        f"\nController activity: {boosts} frequency boosts, "
        f"{launches} instance launches, {withdraws} withdrawals "
        f"across {controller.ticks} intervals."
    )


if __name__ == "__main__":
    main()
