"""Ablation: greedy fastest-first recycling vs alternative victim orders.

Section 6.1: "PowerChief employs greedy policy to recycle the needed
power from the fastest service instances ... Other power recycling
policies ... can be easily plugged into PowerChief".  This bench plugs in
slowest-first and round-robin victim orders and confirms fastest-first is
the best (or equal-best) choice: recycling from slow instances creates
new bottlenecks.
"""

from __future__ import annotations

from repro.core.controller import PowerChiefController
from repro.core.recycling import PowerRecycler
from repro.experiments.report import format_heading, format_table
from repro.scenario import ScenarioSpec, run_scenario
from repro.workloads.sirius import sirius_load_levels

from benchmarks.conftest import run_once, show


class SlowestFirstRecycler(PowerRecycler):
    """Pathological: drain the near-bottleneck instances first."""

    def victim_order(self, victims_fast_to_slow):
        return list(reversed(victims_fast_to_slow))


class EvenOddRecycler(PowerRecycler):
    """Arbitrary interleave, ignoring the latency ranking."""

    def victim_order(self, victims_fast_to_slow):
        victims = list(victims_fast_to_slow)
        return victims[::2] + victims[1::2]


POLICIES = {
    "greedy fastest-first (paper)": PowerRecycler,
    "slowest-first": SlowestFirstRecycler,
    "even-odd interleave": EvenOddRecycler,
}


def run_ablation(duration_s=600.0, seeds=(3, 5)):
    rate = sirius_load_levels().medium_qps
    results = {}
    for name, recycler_cls in POLICIES.items():
        means = []
        for seed in seeds:
            # Patch the recycler class via a controller subclass.
            class PatchedController(PowerChiefController):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    self.recycler = recycler_cls(
                        self.budget.machine.power_model,
                        self.budget.machine.ladder,
                    )
                    self.engine.recycler = self.recycler

            from repro.scenario.builder import LATENCY_CONTROLLERS

            original = LATENCY_CONTROLLERS["powerchief"]
            LATENCY_CONTROLLERS["powerchief"] = PatchedController
            try:
                run = run_scenario(
                    ScenarioSpec.latency(
                        "sirius", "powerchief", ("constant", rate), duration_s, seed=seed
                    )
                )
            finally:
                LATENCY_CONTROLLERS["powerchief"] = original
            means.append(run.latency.mean)
        results[name] = sum(means) / len(means)
    return results


def test_ablation_recycling_policy(benchmark):
    results = run_once(benchmark, run_ablation)
    rows = [
        (name, f"{mean:.3f}s")
        for name, mean in sorted(results.items(), key=lambda kv: kv[1])
    ]
    show(
        format_heading("Ablation: power-recycling victim order (Sirius, medium load)")
        + "\n"
        + format_table(["policy", "mean latency"], rows)
    )
    greedy = results["greedy fastest-first (paper)"]
    # Greedy is the best or within 10% of the best order tried.
    assert greedy <= min(results.values()) * 1.1
