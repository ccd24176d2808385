"""Ablation: collocation interference (Section 8.5's open question).

"Even on separate cores, application collocation has the potential to
generate performance interference and affect the effectiveness of our
approach, which requires further investigation."

This bench is that investigation on the simulated substrate: the Sirius
high-load experiment is rerun with a :class:`LinearContention` model
(every active core slows all serving by up to 40% at full occupancy).
Interference creates a feedback the boosting engine does not model —
every clone taxes every instance — so the question is whether
PowerChief's conclusions survive.

Shape to verify: every policy degrades under interference, the
instance-heavy policies degrade *more* than the static baseline in
relative terms (their clones are what creates the crowding), and yet the
headline conclusion — PowerChief an order of magnitude ahead of the
static allocation — still stands.
"""

from __future__ import annotations

from repro.cluster.contention import LinearContention
from repro.experiments.report import format_heading, format_table
from repro.scenario import ScenarioSpec, run_scenario
from repro.workloads.sirius import sirius_load_levels

from benchmarks.conftest import run_once, show

POLICIES = ("static", "freq-boost", "inst-boost", "powerchief")
INTENSITY = 0.4


def run_comparison(duration_s: float = 600.0, seed: int = 3):
    rate = sirius_load_levels().high_qps
    results = {}
    for policy in POLICIES:
        clean = run_scenario(
            ScenarioSpec.latency(
                "sirius", policy, ("constant", rate), duration_s, seed=seed
            )
        )
        contended = run_scenario(
            ScenarioSpec.latency(
                "sirius",
                policy,
                ("constant", rate),
                duration_s,
                seed=seed,
                contention=LinearContention(INTENSITY),
            )
        )
        results[policy] = (clean.latency.mean, contended.latency.mean)
    return results


def test_interference_ablation(benchmark):
    results = run_once(benchmark, run_comparison)
    rows = [
        (
            policy,
            f"{clean:.3f}s",
            f"{contended:.3f}s",
            f"{(contended / clean - 1.0) * 100:+.1f}%",
        )
        for policy, (clean, contended) in results.items()
    ]
    show(
        format_heading(
            f"Interference ablation: LinearContention({INTENSITY}) "
            f"(Sirius, high load)"
        )
        + "\n"
        + format_table(
            ["policy", "isolated", "contended", "degradation"], rows
        )
    )
    # Everyone pays something.
    for policy, (clean, contended) in results.items():
        assert contended >= clean * 0.99, policy
    # The clone-heavy policies crowd the machine and pay relatively more
    # than the 3-core static baseline.
    static_ratio = results["static"][1] / results["static"][0]
    chief_ratio = results["powerchief"][1] / results["powerchief"][0]
    assert chief_ratio >= static_ratio * 0.95
    # The headline conclusion survives interference.
    assert results["static"][1] / results["powerchief"][1] > 8.0
