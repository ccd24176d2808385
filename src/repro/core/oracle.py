"""The exhaustive-search static allocator (the Section-2.1 oracle).

Section 2.1: "Given a power budget, it is extremely challenging to
achieve an optimal power allocation ... Even if the optimal power
allocation can be found through exhaustive search, the undetermined
runtime factors such as load burst easily generate dynamic bottlenecks
..., which undermines the effectiveness of the static power allocation."

This module builds that hypothetical exhaustive-search opponent so the
claim can be tested: :func:`best_static_allocation` enumerates every
feasible static deployment (instances per stage x one DVFS level per
stage, within the budget and core count) and scores each with an
M/G/1 approximation of the pipeline's mean response time — queries split
evenly across a stage's instances, Pollaczek-Khinchine waiting per
instance, stages summed.  The analytical score makes the search cheap
(~10^5 configurations in well under a second); the winning allocation is
then run in the real simulator by the ``oracle`` artefact
(:func:`repro.experiments.figures.ablations.oracle`).

The paper's prediction, which that artefact's claims check: sized for
the load that arrives, the oracle's plan is excellent, but sized for a
stale low-load forecast it collapses, while PowerChief needs no
forecast at all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.analysis.queueing import mg1_mean_wait
from repro.cluster.frequency import FrequencyLadder, HASWELL_LADDER
from repro.cluster.power import DEFAULT_POWER_MODEL, CubicPowerModel
from repro.service.profile import ServiceProfile

__all__ = ["StaticPlan", "predict_mean_latency", "best_static_allocation"]

_INFEASIBLE = math.inf


@dataclass(frozen=True)
class StaticPlan:
    """One candidate static deployment and its analytic score."""

    #: stage name -> (instance count, ladder level)
    allocation: dict[str, tuple[int, int]]
    predicted_latency_s: float
    power_watts: float

    def total_instances(self) -> int:
        return sum(count for count, _ in self.allocation.values())


def predict_mean_latency(
    profiles: Sequence[ServiceProfile],
    allocation: Mapping[str, tuple[int, int]],
    rate_qps: float,
    ladder: FrequencyLadder = HASWELL_LADDER,
) -> float:
    """M/G/1 estimate of the pipeline's mean response time.

    Each stage is modelled as ``count`` parallel M/G/1 queues fed an even
    ``rate/count`` split (what the shortest-queue dispatcher approaches).
    Returns ``inf`` when any stage would be saturated.
    """
    if rate_qps <= 0.0:
        raise ConfigurationError(f"rate must be > 0, got {rate_qps}")
    total = 0.0
    for profile in profiles:
        try:
            count, level = allocation[profile.name]
        except KeyError:
            raise ConfigurationError(
                f"allocation missing stage {profile.name!r}"
            ) from None
        freq = ladder.frequency_of(level)
        service_time = profile.mean_serving_time(freq)
        per_instance_rate = rate_qps / count
        if per_instance_rate * service_time >= 1.0:
            return _INFEASIBLE
        wait = mg1_mean_wait(per_instance_rate, service_time, profile.demand.cv2)
        total += wait + service_time
    return total


def best_static_allocation(
    profiles: Sequence[ServiceProfile],
    rate_qps: float,
    budget_watts: float,
    max_instances_per_stage: int = 4,
    max_total_instances: Optional[int] = None,
    ladder: FrequencyLadder = HASWELL_LADDER,
    power_model: CubicPowerModel = DEFAULT_POWER_MODEL,
) -> StaticPlan:
    """Exhaustively search static deployments; return the analytic best.

    All instances of a stage share one level (per-instance levels would
    be strictly dominated by the shared-level optimum under an even load
    split, and keep the space tractable).  Ties break toward lower power.
    """
    if budget_watts <= 0.0:
        raise ConfigurationError(f"budget must be > 0, got {budget_watts}")
    if max_instances_per_stage < 1:
        raise ConfigurationError(
            f"max instances per stage must be >= 1, got {max_instances_per_stage}"
        )
    # Per stage: every (count, level) with its power cost.
    stage_options: list[list[tuple[int, int, float]]] = []
    for profile in profiles:
        options = []
        for count in range(1, max_instances_per_stage + 1):
            for level in range(ladder.n_levels):
                watts = count * power_model.power_of_level(ladder, level)
                if watts <= budget_watts:
                    options.append((count, level, watts))
        stage_options.append(options)

    best: Optional[StaticPlan] = None
    for combo in itertools.product(*stage_options):
        power = sum(watts for _, _, watts in combo)
        if power > budget_watts + 1e-9:
            continue
        if max_total_instances is not None:
            if sum(count for count, _, _ in combo) > max_total_instances:
                continue
        allocation = {
            profile.name: (count, level)
            for profile, (count, level, _) in zip(profiles, combo)
        }
        latency = predict_mean_latency(profiles, allocation, rate_qps, ladder)
        if latency == _INFEASIBLE:
            continue
        if (
            best is None
            or latency < best.predicted_latency_s - 1e-12
            or (
                abs(latency - best.predicted_latency_s) <= 1e-12
                and power < best.power_watts
            )
        ):
            best = StaticPlan(
                allocation=allocation,
                predicted_latency_s=latency,
                power_watts=power,
            )
    if best is None:
        raise ConfigurationError(
            f"no feasible static allocation exists for rate {rate_qps} qps "
            f"under {budget_watts} W"
        )
    return best
