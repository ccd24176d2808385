"""The four benchmark workloads, as scenario specs built from a seed.

Every workload is built through the public :class:`ScenarioSpec`
constructors, so the program receives only generated inputs.  ``scale``
shrinks simulated durations for the smoke tests; the benchmark itself
always runs at ``scale=1``.

* ``headline-batch`` is the v10 ``headline-large`` cell (at seed 3 its
  spec digest equals v10's ``c56a7398...``): the event hot path, with the
  controller and observability idle.
* ``observed-headline`` is the same shape, shorter, with all seven
  observability pillars and supervision armed: the same event path plus
  ``obs/`` and ``guard/`` on every completion.
* ``paper-grid`` is the paper's evaluation grid at Table-2/3 deployments:
  90 small cells, where per-cell assembly, controllers, power and QoS
  sampling carry a far larger share than on the headline.
* ``reprod-turbo`` is the headline deployment at half its rate, hosted
  by the ``reprod`` daemon: the only request-serving path.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.guard import GuardConfig
from repro.scenario.spec import ScenarioSpec, StageAllocation
from repro.workloads import load_levels_for, nlp_profiles, sirius_profiles

WORKLOADS = ("headline-batch", "observed-headline", "paper-grid", "reprod-turbo")

#: Every observability pillar the scenario layer knows.
ALL_PILLARS = ("trace", "metrics", "audit", "attribution", "slo", "energy", "stream")

HEADLINE_QPS = 40.0
HEADLINE_DURATION_S = 2500.0
OBSERVED_DURATION_S = 600.0
REPROD_DURATION_S = 1000.0
#: Half the headline rate: a 10 s quantum then computes in about 11 ms at
#: the reference host speed, so even at half speed it finishes well
#: inside the daemon's 50 ms poll, and the run stays paced by the poll.
REPROD_QPS = 20.0
REPROD_SAMPLE_INTERVAL_S = 25.0

#: Table-2 deployments: the frequency the load levels are anchored to.
BASELINE_FREQ_GHZ = 1.8
GRID_LATENCY_APPS = (("sirius", sirius_profiles), ("nlp", nlp_profiles))
GRID_LATENCY_POLICIES = ("static", "freq-boost", "inst-boost", "powerchief")
GRID_LATENCY_DURATION_S = 600.0
#: Table-3 deployments at the rates Figures 13 and 14 use.
GRID_QOS_CELLS = (("sirius", 1.0), ("websearch", 8.0))
GRID_QOS_POLICIES = ("baseline", "pegasus", "powerchief")
GRID_QOS_DURATION_S = 400.0
GRID_SEEDS = 3

#: Shortest simulated duration a scaled-down cell keeps, so even the
#: 1-qps QoS cell completes queries in a smoke run.
MIN_SCALED_DURATION_S = 40.0


def canonical_digest(payload: Any) -> str:
    """sha256 of the canonical (sorted, compact) JSON of ``payload``: the
    output check every repeat is judged by."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _scaled(duration_s: float, scale: float) -> float:
    if scale == 1.0:
        return duration_s
    return max(MIN_SCALED_DURATION_S, duration_s * scale)


def headline_spec(
    seed: int,
    duration_s: float = HEADLINE_DURATION_S,
    *,
    qps: float = HEADLINE_QPS,
    observed: bool = False,
    **extra: Any,
) -> ScenarioSpec:
    """64 instances (22/21/21 across Sirius's stages) on 64 cores, at
    40 qps unless ``qps`` says otherwise."""
    if observed:
        extra.update(observe=ALL_PILLARS, guard=GuardConfig(), slo_target_s=5.0)
    return ScenarioSpec.latency(
        "sirius",
        "powerchief",
        ("constant", qps),
        duration_s,
        seed=seed,
        budget_watts=1000.0,
        allocation={
            "ASR": StageAllocation(count=22, level=1),
            "IMM": StageAllocation(count=21, level=1),
            "QA": StageAllocation(count=21, level=1),
        },
        n_cores=64,
        **extra,
    )


def grid_specs(seed: int, scale: float = 1.0) -> list[ScenarioSpec]:
    """The 90 paper-grid cells in run order: latency, then QoS, per seed."""
    specs = []
    for cell_seed in range(seed, seed + GRID_SEEDS):
        for app, profiles in GRID_LATENCY_APPS:
            levels = load_levels_for(profiles(), BASELINE_FREQ_GHZ)
            for policy in GRID_LATENCY_POLICIES:
                for rate in (levels.low_qps, levels.medium_qps, levels.high_qps):
                    specs.append(
                        ScenarioSpec.latency(
                            app,
                            policy,
                            ("constant", rate),
                            _scaled(GRID_LATENCY_DURATION_S, scale),
                            seed=cell_seed,
                        )
                    )
        for app, rate in GRID_QOS_CELLS:
            for policy in GRID_QOS_POLICIES:
                specs.append(
                    ScenarioSpec.qos(
                        app, policy, rate, _scaled(GRID_QOS_DURATION_S, scale), seed=cell_seed
                    )
                )
    return specs


def batch_specs(workload: str, seed: int, scale: float = 1.0) -> list[ScenarioSpec]:
    """The specs an in-process workload runs, in order."""
    if workload == "headline-batch":
        return [headline_spec(seed, _scaled(HEADLINE_DURATION_S, scale))]
    if workload == "observed-headline":
        return [headline_spec(seed, _scaled(OBSERVED_DURATION_S, scale), observed=True)]
    if workload == "paper-grid":
        return grid_specs(seed, scale)
    if workload == "reprod-turbo":
        return [reprod_spec(seed, scale)]
    raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")


def reprod_spec(seed: int, scale: float = 1.0) -> ScenarioSpec:
    """The spec the ``reprod-turbo`` client submits to the daemon.

    The daemon writes replies with ``sendall`` on a non-blocking socket,
    so a ``result`` larger than the socket send buffer (208 KiB by
    default) drops the connection.  Sampling state every 25 s instead of
    5 s keeps the result near 62 KiB.
    """
    return headline_spec(
        seed,
        _scaled(REPROD_DURATION_S, scale),
        qps=REPROD_QPS,
        sample_interval_s=REPROD_SAMPLE_INTERVAL_S,
    )
