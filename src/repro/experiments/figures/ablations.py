"""Ablations and sweeps: the conclusions the paper argues beyond its figures.

Each artefact here is a set of named variants of one Sirius experiment:
a knob swept, a mechanism switched off, a forecast gone stale.  All of
them share one result type, :class:`Variants` (each variant's runs, one
per seed), one reducer and one render, and the figure runner executes
their cells like any figure's.  Their conclusions are claim rows in
``tests/integration/test_paper_claims.py``.

* :func:`metric` — Section 4.2: the Equation-1 metric sees the queues
  that Table 1's historical metrics miss.
* :func:`intervals` — Section 8.1: the Table-2 adjust interval and the
  balance threshold, swept.
* :func:`mechanisms` — Section 6: instance withdraw and the adaptive
  choice of technique, switched off one at a time on Figure 11's trace.
* :func:`interference` — Section 8.5's open question: every policy
  again under :class:`~repro.cluster.contention.LinearContention`.
* :func:`oracle` — Section 2.1: an exhaustive-search static allocation
  with a clairvoyant and with a stale load forecast, against PowerChief.
* :func:`budget_sweep` — the improvement over the static allocation as
  the power cap rises above Table 2's.
* :func:`seed_sensitivity` — Figure 10's high-load improvement at five
  seeds.
* :func:`sharding` — Section 7.2: four shards under four times the load.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

from repro.cluster.contention import LinearContention
from repro.cluster.frequency import HASWELL_LADDER
from repro.cluster.power import DEFAULT_POWER_MODEL
from repro.core.metrics import MetricKind
from repro.core.oracle import StaticPlan, best_static_allocation
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.figures.common import DEFAULT_SEEDS, Figure
from repro.experiments.report import format_heading, format_table
from repro.scenario.config import TABLE2_CONTROLLER_CONFIG, TABLE2_POWER_BUDGET_WATTS
from repro.scenario.spec import ScenarioSpec, StageAllocation
from repro.workloads.sirius import SIRIUS_STAGES, sirius_load_levels, sirius_profiles
from repro.workloads.traces import FIG11_DURATION_S, fig11_trace

__all__ = [
    "Variants",
    "budget_sweep",
    "equal_split_allocation",
    "interference",
    "intervals",
    "mechanisms",
    "metric",
    "oracle",
    "render_variants",
    "seed_sensitivity",
    "sharding",
]

#: The Equation-1 metric and four of Table 1's.
METRICS = (
    MetricKind.POWERCHIEF,
    MetricKind.AVG_SERVING,
    MetricKind.AVG_PROCESSING,
    MetricKind.P99_PROCESSING,
    MetricKind.AVG_QUEUING,
)
ADJUST_INTERVALS = (10.0, 25.0, 50.0, 100.0)
THRESHOLDS = (0.0, 0.25, 1.0, 1000.0)
POLICIES = ("static", "freq-boost", "inst-boost", "powerchief")
#: Every active core slows all serving by up to 40% at full occupancy.
INTENSITY = 0.4
#: Table 2's budget (three instances at 1.8 GHz), then looser caps up
#: to one that funds every stage at 2.4 GHz and two floor clones.
BUDGETS = (TABLE2_POWER_BUDGET_WATTS, 18.0, 24.0, 32.0, 45.0)
SEEDS = (3, 5, 11, 23, 42)


@dataclass(frozen=True)
class Variants:
    """One ablation's result: each named variant's runs, in seed order."""

    title: str
    runs: Mapping[str, tuple[Any, ...]]
    notes: tuple[str, ...] = ()

    def _runs(self, variant: str) -> tuple[Any, ...]:
        try:
            return self.runs[variant]
        except KeyError:
            raise ExperimentError(f"no variant {variant!r}") from None

    def mean(self, variant: str) -> float:
        """The variant's mean latency, averaged over its seeds."""
        runs = self._runs(variant)
        return sum(run.latency.mean for run in runs) / len(runs)

    def p99(self, variant: str) -> float:
        """The variant's 99th-percentile latency, averaged over its seeds."""
        runs = self._runs(variant)
        return sum(run.latency.p99 for run in runs) / len(runs)

    def completed(self, variant: str) -> int:
        """Queries the variant's runs completed, summed over its seeds."""
        return sum(run.queries_completed for run in self._runs(variant))


def render_variants(result: Variants) -> str:
    """One row per variant, then the figure's notes."""
    rows = [
        (
            name,
            result.completed(name),
            f"{result.mean(name):.3f}s",
            f"{result.p99(name):.3f}s",
        )
        for name in result.runs
    ]
    table = format_table(["variant", "queries", "mean latency", "p99 latency"], rows)
    return "\n".join([format_heading(result.title), table, *result.notes])


def _figure(
    title: str,
    variants: Mapping[str, Sequence[ScenarioSpec]],
    notes: tuple[str, ...] = (),
) -> Figure:
    """The cells of every variant in order, reduced to :class:`Variants`."""
    sizes = {name: len(specs) for name, specs in variants.items()}

    def reduce(results: Sequence[Any]) -> Variants:
        runs, start = {}, 0
        for name, size in sizes.items():
            runs[name] = tuple(results[start : start + size])
            start += size
        return Variants(title, runs, notes)

    cells = tuple(spec for specs in variants.values() for spec in specs)
    return Figure(cells=cells, reduce=reduce, render=render_variants)


def _sirius(
    policy: str, trace: Any, duration_s: float, seed: int, **fields: Any
) -> ScenarioSpec:
    return ScenarioSpec.latency("sirius", policy, trace, duration_s, seed=seed, **fields)


def metric(duration_s: float = 600.0, seeds: Sequence[int] = DEFAULT_SEEDS) -> Figure:
    """PowerChief driven by each candidate bottleneck metric, high load."""
    trace = ("constant", sirius_load_levels().high_qps)
    return _figure(
        "Ablation: bottleneck-identification metric (Sirius, high load, "
        f"seeds {', '.join(map(str, seeds))})",
        {
            kind.value: [
                _sirius(
                    "powerchief", trace, duration_s, seed,
                    controller=replace(TABLE2_CONTROLLER_CONFIG, metric_kind=kind),
                )
                for seed in seeds
            ]
            for kind in METRICS
        },
    )


def intervals(duration_s: float = 600.0, seed: int = 3) -> Figure:
    """The adjust interval and the balance threshold, each swept with the
    other at its Table-2 value, at medium load."""
    trace = ("constant", sirius_load_levels().medium_qps)

    def run(**knob: float) -> list[ScenarioSpec]:
        config = replace(TABLE2_CONTROLLER_CONFIG, **knob)
        return [_sirius("powerchief", trace, duration_s, seed, controller=config)]

    return _figure(
        f"Ablation: adjust interval and balance threshold (Sirius, medium load, seed {seed})",
        {
            **{f"adjust {value:g} s": run(adjust_interval_s=value) for value in ADJUST_INTERVALS},
            **{f"threshold {value:g} s": run(balance_threshold_s=value) for value in THRESHOLDS},
        },
    )


def mechanisms(seed: int = 3) -> Figure:
    """Full PowerChief, without instance withdraw, and each single
    technique, on the Figure-11 trace."""
    trace = fig11_trace(sirius_load_levels().high_qps)
    no_withdraw = replace(TABLE2_CONTROLLER_CONFIG, enable_withdraw=False)
    return _figure(
        f"Ablation: PowerChief mechanisms (Sirius, Figure-11 load trace, seed {seed})",
        {
            name: [_sirius(policy, trace, FIG11_DURATION_S, seed, controller=config)]
            for name, policy, config in (
                ("full", "powerchief", TABLE2_CONTROLLER_CONFIG),
                ("no withdraw", "powerchief", no_withdraw),
                ("frequency only", "freq-boost", TABLE2_CONTROLLER_CONFIG),
                ("instance only", "inst-boost", TABLE2_CONTROLLER_CONFIG),
            )
        },
    )


def interference(duration_s: float = 600.0, seed: int = 3) -> Figure:
    """Every policy isolated and under linear contention, high load."""
    trace = ("constant", sirius_load_levels().high_qps)
    variants: dict[str, list[ScenarioSpec]] = {}
    for policy in POLICIES:
        variants[f"{policy} isolated"] = [_sirius(policy, trace, duration_s, seed)]
        variants[f"{policy} contended"] = [
            _sirius(policy, trace, duration_s, seed, contention=LinearContention(INTENSITY))
        ]
    return _figure(
        f"Ablation: collocation interference, LinearContention({INTENSITY:g}) "
        f"(Sirius, high load, seed {seed})",
        variants,
    )


@functools.cache
def _oracle_plans() -> tuple[StaticPlan, StaticPlan]:
    """The exhaustive search at the actual (high) load and at a stale
    low-load forecast; searched once per process."""
    levels = sirius_load_levels()
    search = functools.partial(
        best_static_allocation,
        sirius_profiles(),
        budget_watts=TABLE2_POWER_BUDGET_WATTS,
        max_total_instances=16,
    )
    return search(rate_qps=levels.high_qps), search(rate_qps=levels.low_qps)


def _describe(plan: StaticPlan) -> str:
    return ", ".join(
        f"{stage} {count} x {HASWELL_LADDER.frequency_of(level):g} GHz"
        for stage, (count, level) in plan.allocation.items()
    )


def oracle(duration_s: float = 600.0, seed: int = 3) -> Figure:
    """The oracle's static plan for the actual load and for a stale
    low-load forecast, against PowerChief, at high load."""
    trace = ("constant", sirius_load_levels().high_qps)
    clairvoyant, stale = _oracle_plans()

    def static(plan: StaticPlan) -> list[ScenarioSpec]:
        allocation = {
            stage: StageAllocation(count, level)
            for stage, (count, level) in plan.allocation.items()
        }
        return [_sirius("static", trace, duration_s, seed, allocation=allocation)]

    return _figure(
        "Exhaustive-search static allocation vs PowerChief "
        f"(Sirius, high load, {TABLE2_POWER_BUDGET_WATTS:g} W, seed {seed})",
        {
            "oracle, actual load": static(clairvoyant),
            "oracle, stale low-load forecast": static(stale),
            "powerchief, no forecast": [_sirius("powerchief", trace, duration_s, seed)],
        },
        notes=(
            f"actual-load plan: {_describe(clairvoyant)}",
            f"stale plan:       {_describe(stale)}",
        ),
    )


def equal_split_allocation(budget_watts: float) -> dict[str, StageAllocation]:
    """Table 2's construction at any cap: the budget split equally over
    the three stages, each one instance at the highest level it affords."""
    level = DEFAULT_POWER_MODEL.max_level_within(
        HASWELL_LADDER, budget_watts / len(SIRIUS_STAGES)
    )
    if level is None:
        raise ConfigurationError(
            f"a {budget_watts:g} W budget funds no ladder level on each of "
            f"{len(SIRIUS_STAGES)} stages"
        )
    return {stage: StageAllocation(1, level) for stage in SIRIUS_STAGES}


def budget_sweep(duration_s: float = 600.0, seed: int = 3) -> Figure:
    """The static allocation and PowerChief at each budget, high load."""
    trace = ("constant", sirius_load_levels().high_qps)
    return _figure(
        f"Budget sweep: static vs PowerChief by power cap (Sirius, high load, seed {seed})",
        {
            f"{policy} {budget:g} W": [
                _sirius(
                    policy, trace, duration_s, seed,
                    budget_watts=budget, allocation=equal_split_allocation(budget),
                )
            ]
            for budget in BUDGETS
            for policy in ("static", "powerchief")
        },
    )


def seed_sensitivity(duration_s: float = 600.0, seeds: Sequence[int] = SEEDS) -> Figure:
    """The static allocation and PowerChief at high load, seed by seed."""
    trace = ("constant", sirius_load_levels().high_qps)
    return _figure(
        "Seed sensitivity: static vs PowerChief (Sirius, high load)",
        {
            f"{policy}, seed {seed}": [_sirius(policy, trace, duration_s, seed)]
            for seed in seeds
            for policy in ("static", "powerchief")
        },
    )


def sharding(duration_s: float = 400.0, seed: int = 3) -> Figure:
    """One PowerChief stack at the high load, and four shards, each its
    own stack, under four times that load."""
    high = sirius_load_levels().high_qps
    return _figure(
        f"Sharded deployment: 4x load on 4 shards vs 1x on 1 (Sirius, seed {seed})",
        {
            f"{n} shard{'s' if n > 1 else ''}, {n}x load": [
                _sirius(
                    "powerchief", ("constant", high * n), duration_s, seed,
                    controller=TABLE2_CONTROLLER_CONFIG, shards=n,
                )
            ]
            for n in (1, 4)
        },
    )
