"""Per-stage query timeout, retry and crash-requeue machinery.

PowerChief's service/query joint design assumes every dispatched query
eventually comes back with a latency record.  Under fault injection that
assumption breaks three ways: the serving instance crashes (the job is
orphaned), the instance hangs or is degraded (the job never finishes),
or no instance is available at dispatch time (the pool is mid-respawn).
:class:`StageResilience` closes all three holes with the classic RPC
discipline — a per-attempt timeout, seeded exponential backoff between
retries, and a bounded retry budget — so that every admitted query
settles as *completed* or *timed-out*, never silently lost.

The layer is strictly opt-in: a stage without an attached
:class:`StageResilience` routes queries exactly as before, byte for
byte.  All randomness (backoff jitter) comes from a dedicated
:class:`~repro.sim.rng.SeededStream`, so attaching the layer never
perturbs the workload streams and identical seeds reproduce identical
retry schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigurationError
from repro.units import exactly
from repro.service.instance import Job, ServiceInstance
from repro.service.query import Query
from repro.service.records import AttemptRecord
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.rng import SeededStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.obs.metrics import MetricsRegistry
    from repro.service.stage import Stage

__all__ = ["RetryPolicy", "StageResilience"]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry discipline for one stage.

    ``timeout_s`` bounds a single attempt (dispatch to completion);
    a timed-out attempt is retried after exponential backoff
    ``min(backoff_max_s, backoff_base_s * backoff_factor**(n-1))``
    with ``±jitter_fraction`` seeded jitter, up to ``max_attempts``
    total attempts, after which the query fails terminally.
    ``redispatch_delay_s`` is the pause before re-probing a stage that
    momentarily has no running instance (crash-to-respawn window).
    """

    timeout_s: float = 10.0
    max_attempts: int = 3
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    jitter_fraction: float = 0.1
    redispatch_delay_s: float = 0.25

    def __post_init__(self) -> None:
        if self.timeout_s <= 0.0:
            raise ConfigurationError(
                f"attempt timeout must be > 0, got {self.timeout_s}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"retry budget needs >= 1 attempt, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0.0 or self.backoff_max_s < self.backoff_base_s:
            raise ConfigurationError(
                "backoff must satisfy 0 <= base <= max, got "
                f"base={self.backoff_base_s}, max={self.backoff_max_s}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ConfigurationError(
                f"jitter fraction must be in [0, 1), got {self.jitter_fraction}"
            )
        if self.redispatch_delay_s <= 0.0:
            raise ConfigurationError(
                f"redispatch delay must be > 0, got {self.redispatch_delay_s}"
            )

    def backoff_delay(self, attempt: int, stream: SeededStream) -> float:
        """Backoff before attempt number ``attempt`` (attempt 2 = first retry)."""
        exponent = max(0, attempt - 2)
        base = min(
            self.backoff_max_s, self.backoff_base_s * self.backoff_factor**exponent
        )
        if exactly(self.jitter_fraction, 0.0):
            return base
        return base * (1.0 + self.jitter_fraction * stream.uniform(-1.0, 1.0))


class _Attempt:
    """Book-keeping for one query (or shard) being pushed through a stage."""

    __slots__ = (
        "query",
        "work",
        "on_done",
        "on_failed",
        "number",
        "job",
        "instance",
        "timeout_event",
        "settled",
        "dispatched_time",
    )

    def __init__(
        self,
        query: Query,
        work: float,
        on_done: Callable[[Query], None],
        on_failed: Callable[[Query], None],
    ) -> None:
        self.query = query
        self.work = work
        self.on_done = on_done
        self.on_failed = on_failed
        self.number = 1
        self.job: Optional[Job] = None
        self.instance: Optional[ServiceInstance] = None
        self.timeout_event: Optional[Event] = None
        self.settled = False
        self.dispatched_time = 0.0


class StageResilience:
    """Drives every query of one stage through the retry discipline."""

    def __init__(
        self,
        stage: "Stage",
        policy: RetryPolicy,
        stream: SeededStream,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.stage = stage
        self.policy = policy
        self.stream = stream
        self.metrics = metrics
        self.sim: Simulator = stage.sim
        self._retries = 0
        self._timeouts = 0
        self._crash_requeues = 0
        self._failures = 0
        self._completed_after_retry = 0

    def _count_attempt(self, outcome: str) -> None:
        """Mirror one settled attempt into the registry, by outcome."""
        if self.metrics is not None:
            self.metrics.counter(
                "repro_attempts_total",
                "Dispatch attempts settled, by outcome",
            ).inc(stage=self.stage.name, outcome=outcome)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    @property
    def retries(self) -> int:
        """Attempts re-dispatched after an attempt timeout."""
        return self._retries

    @property
    def timeouts(self) -> int:
        """Attempts that hit the per-attempt timeout."""
        return self._timeouts

    @property
    def crash_requeues(self) -> int:
        """Jobs re-dispatched because their instance crashed."""
        return self._crash_requeues

    @property
    def failures(self) -> int:
        """Attempts that exhausted the retry budget (terminal failures)."""
        return self._failures

    @property
    def completed_after_retry(self) -> int:
        """Attempts that completed on a retry (attempt number > 1)."""
        return self._completed_after_retry

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def submit(
        self,
        query: Query,
        work: float,
        on_done: Callable[[Query], None],
        on_failed: Callable[[Query], None],
    ) -> _Attempt:
        """Push one unit of work through the stage under the retry policy."""
        attempt = _Attempt(query, work, on_done, on_failed)
        self._begin_attempt(attempt)
        return attempt

    def requeue_orphans(self, jobs: list[Job]) -> list[Job]:
        """Re-dispatch crash-orphaned jobs that this layer is tracking.

        Returns the jobs it does *not* own (submitted outside the
        resilience layer); the stage falls back to direct re-dispatch for
        those.  The re-dispatch reuses the attempt's live timeout — a
        crash does not grant the query extra time.
        """
        leftovers: list[Job] = []
        for job in jobs:
            attempt = job.attempt
            if not isinstance(attempt, _Attempt):
                leftovers.append(job)
                continue
            if attempt.settled or job.cancelled:
                continue
            job.cancelled = True
            self._crash_requeues += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_crash_requeues_total",
                    "Jobs requeued after an instance crash",
                ).inc(stage=self.stage.name)
            attempt.query.append_attempt(
                AttemptRecord(
                    stage_name=self.stage.name,
                    attempt=attempt.number,
                    dispatched_time=attempt.dispatched_time,
                    instance_name=(
                        None if attempt.instance is None else attempt.instance.name
                    ),
                    outcome="crash-requeue",
                    settled_time=self.sim.now,
                )
            )
            self._count_attempt("crash-requeue")
            self._place(attempt)
        return leftovers

    def cancel(self, attempt: _Attempt) -> None:
        """Abandon a live attempt (a sibling scatter-gather shard failed)."""
        if attempt.settled:
            return
        attempt.settled = True
        if attempt.timeout_event is not None:
            attempt.timeout_event.cancel()
            attempt.timeout_event = None
        self._abandon_job(attempt)
        attempt.query.append_attempt(
            AttemptRecord(
                stage_name=self.stage.name,
                attempt=attempt.number,
                dispatched_time=attempt.dispatched_time,
                instance_name=(
                    None if attempt.instance is None else attempt.instance.name
                ),
                outcome="abandoned",
                settled_time=self.sim.now,
            )
        )
        self._count_attempt("abandoned")

    # ------------------------------------------------------------------
    # Attempt lifecycle
    # ------------------------------------------------------------------
    def _begin_attempt(self, attempt: _Attempt) -> None:
        """Arm the per-attempt timeout, then place the job."""
        if attempt.settled:
            return
        attempt.timeout_event = self.sim.schedule(
            self.policy.timeout_s, self._on_timeout, attempt
        )
        self._place(attempt)

    def _place(self, attempt: _Attempt) -> None:
        """Dispatch (or re-dispatch) the attempt onto a running instance."""
        if attempt.settled:
            return
        running = self.stage.running_instances()
        attempt.dispatched_time = self.sim.now
        if not running:
            # Pool is momentarily empty (crash-to-respawn window): record
            # the miss and re-probe shortly.  The attempt's timeout keeps
            # running, so a stage that stays dark converts the query into
            # an honest timeout instead of wedging it forever.
            attempt.job = None
            attempt.instance = None
            attempt.query.append_attempt(
                AttemptRecord(
                    stage_name=self.stage.name,
                    attempt=attempt.number,
                    dispatched_time=self.sim.now,
                    instance_name=None,
                    outcome="no-instance",
                    settled_time=self.sim.now,
                )
            )
            self._count_attempt("no-instance")
            self.sim.schedule(self.policy.redispatch_delay_s, self._place, attempt)
            return
        instance = self.stage.dispatcher.select(running)
        job = Job(
            query=attempt.query,
            work=attempt.work,
            on_done=lambda _query, _attempt=attempt: self._on_job_done(_attempt),
            attempt=attempt,
        )
        attempt.job = job
        attempt.instance = instance
        instance.enqueue(job)

    def _on_job_done(self, attempt: _Attempt) -> None:
        if attempt.settled:
            return
        attempt.settled = True
        if attempt.timeout_event is not None:
            attempt.timeout_event.cancel()
            attempt.timeout_event = None
        if attempt.number > 1:
            self._completed_after_retry += 1
        attempt.query.append_attempt(
            AttemptRecord(
                stage_name=self.stage.name,
                attempt=attempt.number,
                dispatched_time=attempt.dispatched_time,
                instance_name=(
                    None if attempt.instance is None else attempt.instance.name
                ),
                outcome="completed",
                settled_time=self.sim.now,
            )
        )
        self._count_attempt("completed")
        attempt.on_done(attempt.query)

    def _on_timeout(self, attempt: _Attempt) -> None:
        if attempt.settled:
            return
        attempt.timeout_event = None
        self._timeouts += 1
        if self.metrics is not None:
            self.metrics.counter(
                "repro_attempt_timeouts_total",
                "Dispatch attempts that hit the timeout",
            ).inc(stage=self.stage.name)
        self._abandon_job(attempt)
        attempt.query.append_attempt(
            AttemptRecord(
                stage_name=self.stage.name,
                attempt=attempt.number,
                dispatched_time=attempt.dispatched_time,
                instance_name=(
                    None if attempt.instance is None else attempt.instance.name
                ),
                outcome="timed-out",
                settled_time=self.sim.now,
            )
        )
        self._count_attempt("timed-out")
        if attempt.number >= self.policy.max_attempts:
            attempt.settled = True
            self._failures += 1
            attempt.on_failed(attempt.query)
            return
        attempt.number += 1
        attempt.query.retried = True
        self._retries += 1
        if self.metrics is not None:
            self.metrics.counter(
                "repro_queries_retried_total",
                "Attempts re-dispatched after a timeout",
            ).inc(stage=self.stage.name)
        delay = self.policy.backoff_delay(attempt.number, self.stream)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_retry_backoff_seconds_total",
                "Deliberate backoff delay inserted between attempts",
            ).inc(delay, stage=self.stage.name)
        self.sim.schedule(delay, self._begin_attempt, attempt)

    def _abandon_job(self, attempt: _Attempt) -> None:
        """Detach the attempt's job from wherever it currently sits."""
        job = attempt.job
        if job is None:
            return
        job.cancelled = True
        instance = attempt.instance
        if instance is not None and not instance.abort_current(job):
            instance.remove_waiting(job)
        attempt.job = None
