"""Result records every scenario kind collects into.

:class:`RunResult` and :class:`QosRunResult` are what a latency and a
QoS run return; :class:`ShardedRunResult` is the pooled view of a
multi-shard latency run plus a :class:`ShardResult` per replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.actions import ActionRecord
from repro.scenario.sampling import QosSample, StateSample
from repro.util.percentile import LatencySummary

__all__ = ["RunResult", "QosRunResult", "ShardResult", "ShardedRunResult"]


@dataclass
class RunResult:
    """Everything a latency-mitigation run produced."""

    app: str
    policy: str
    duration_s: float
    queries_submitted: int
    queries_completed: int
    latency: LatencySummary
    average_power_watts: float
    actions: tuple[ActionRecord, ...]
    state_samples: tuple[StateSample, ...]

    @property
    def completion_fraction(self) -> float:
        if self.queries_submitted == 0:
            return 0.0
        return self.queries_completed / self.queries_submitted


@dataclass
class QosRunResult:
    """Everything a QoS-mode run produced."""

    app: str
    policy: str
    duration_s: float
    qos_target_s: float
    reference_power_watts: float
    queries_submitted: int
    queries_completed: int
    latency: LatencySummary
    average_power_fraction: float
    violation_fraction: float
    actions: tuple[ActionRecord, ...]
    qos_samples: tuple[QosSample, ...]

    @property
    def power_saving_fraction(self) -> float:
        """1 - average power fraction: the Figure-13/14 headline number."""
        return 1.0 - self.average_power_fraction


@dataclass
class ShardResult:
    """One replica's share of a sharded run.

    ``latency`` is ``None`` when the splitter routed every completed
    query elsewhere (possible for tiny runs with many shards).
    """

    index: int
    queries_completed: int
    latency: Optional[LatencySummary]
    average_power_watts: float
    actions: tuple[ActionRecord, ...]


@dataclass
class ShardedRunResult:
    """The pooled view of a multi-shard latency run.

    ``latency`` summarises completions across *all* shards — the number
    a client of the whole deployment would measure; ``shards`` keeps the
    per-replica breakdown for balance and blast-radius analysis.
    """

    app: str
    policy: str
    duration_s: float
    n_shards: int
    splitter: str
    queries_submitted: int
    queries_completed: int
    latency: LatencySummary
    average_power_watts: float
    shards: tuple[ShardResult, ...]

    @property
    def completion_fraction(self) -> float:
        if self.queries_submitted == 0:
            return 0.0
        return self.queries_completed / self.queries_submitted
