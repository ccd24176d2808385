#!/usr/bin/env python3
"""Tail-latency analysis: where does the p99 go, and what fixed it?

The paper's conclusion names deeper tail-latency analysis as future
work; latency attribution (`repro.obs.attribution`) answers it.  This
example runs Sirius under medium load with the static baseline and with
PowerChief, splits each stage's time into queuing and serving, and rolls
up the slowest 1% of queries to show how PowerChief's boosting moved the
tail's dominant cost.

Run:  python examples/tail_latency_analysis.py
"""

from repro.obs import tail_report
from repro.obs.attribution import TRANSIT_STAGE
from repro.scenario import ScenarioSpec, StackBuilder
from repro.workloads import sirius_load_levels


def run(policy):
    builder = StackBuilder(
        ScenarioSpec.latency(
            "sirius",
            policy,
            ("constant", sirius_load_levels().medium_qps),
            600.0,
            seed=3,
            observe=("attribution",),
        )
    )
    result = builder.execute()
    return result, builder.observability.attribution


def queuing_fraction(rollup):
    queued = rollup.component_totals["queue"]
    return queued / (queued + rollup.component_totals["service"])


def report(label, result, collector):
    """Print one run's per-stage split and its tail; return the tail."""
    rollup = collector.report()
    print(f"--- {label} ---")
    print(
        f"{rollup.count} queries, mean {result.latency.mean:.3f}s, "
        f"p99 {result.latency.p99:.3f}s"
    )
    print(f"{'stage':<6} {'mean q':>8} {'mean s':>8}")
    for stage, parts in rollup.stage_totals.items():
        if stage != TRANSIT_STAGE:
            print(
                f"{stage:<6} {parts.get('queue', 0.0) / rollup.count:>7.3f}s "
                f"{parts.get('service', 0.0) / rollup.count:>7.3f}s"
            )
    tail = tail_report(collector.attributions)
    dominant = next(
        stage for stage, _ in tail.blame_ranking() if stage != TRANSIT_STAGE
    )
    print(
        f"tail (slowest {tail.count} queries): dominated by stage {dominant}, "
        f"{queuing_fraction(tail) * 100:.0f}% of their time spent queuing\n"
    )
    return dominant, tail


def main() -> None:
    print("Sirius, medium load, 13.56 W budget\n")
    baseline, baseline_attribution = run("static")
    chief, chief_attribution = run("powerchief")
    dominant, tail = report("stage-agnostic baseline", baseline, baseline_attribution)
    report("PowerChief", chief, chief_attribution)

    speedup = baseline.latency.p99 / chief.latency.p99
    print(
        f"PowerChief cut the p99 by {speedup:.1f}x; the baseline tail was "
        f"dominated by {dominant} queuing "
        f"({queuing_fraction(tail) * 100:.0f}% of tail time), which is "
        f"exactly what its boosting targets."
    )


if __name__ == "__main__":
    main()
