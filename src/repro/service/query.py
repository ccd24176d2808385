"""The extended query data structure.

A :class:`Query` is a user request flowing through the multi-stage
pipeline.  Besides its payload stand-in (per-stage work demands, sampled
once at creation so every policy sees the identical workload), it carries
the list of :class:`StageRecord` latency statistics that the service/query
joint design appends at each stage (Section 4.1, Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.errors import ServiceError
from repro.service.records import AttemptRecord, StageRecord

__all__ = ["Query"]

_INF = float("inf")


@dataclass(slots=True, init=False)
class Query:
    """One user query and the latency statistics it accumulates.

    Parameters
    ----------
    qid:
        Unique id within a run.
    demands:
        Per-stage work, in seconds of execution *at the slowest ladder
        frequency*.  Sampled once by the load generator so that different
        controllers replay byte-identical work.
    """

    qid: int
    demands: Mapping[str, float]
    arrival_time: Optional[float]
    completion_time: Optional[float]
    records: list[StageRecord]
    #: Dispatch attempts under the resilience layer; the empty tuple on
    #: the fault-free fast path (no resilience attached).
    attempts: tuple[AttemptRecord, ...]
    #: Stamped when the query fails terminally (retry budget exhausted).
    failed_time: Optional[float]
    #: True once any stage re-dispatched the query after a timeout.
    retried: bool

    # Written out, not generated: one frame per query instead of the
    # generated ``__init__`` plus a ``__post_init__`` for the demand
    # check, and a profile files every generated ``__init__`` under one
    # label, so the check's calls would be charged to whichever of them
    # the profiler kept.
    def __init__(
        self,
        qid: int,
        demands: Mapping[str, float],
        arrival_time: Optional[float] = None,
        completion_time: Optional[float] = None,
        records: Optional[list[StageRecord]] = None,
        attempts: tuple[AttemptRecord, ...] = (),
        failed_time: Optional[float] = None,
        retried: bool = False,
    ) -> None:
        for stage, demand in demands.items():
            if not 0.0 <= demand < _INF:
                raise ServiceError(
                    f"query {qid}: demand for stage {stage!r} must be "
                    f"finite and >= 0, got {demand}"
                )
        self.qid = qid
        self.demands = demands
        self.arrival_time = arrival_time
        self.completion_time = completion_time
        self.records = [] if records is None else records
        self.attempts = attempts
        self.failed_time = failed_time
        self.retried = retried

    # ------------------------------------------------------------------
    @property
    def completed(self) -> bool:
        """Whether the query has finished the last pipeline stage."""
        return self.completion_time is not None

    @property
    def timed_out(self) -> bool:
        """Whether the query failed terminally (retry budget exhausted)."""
        return self.failed_time is not None

    @property
    def outcome(self) -> str:
        """Terminal accounting bucket for the goodput report.

        ``completed`` / ``retried-completed`` / ``timed-out`` once the
        query settles; ``in-flight`` while it is still in the pipeline.
        Every admitted query must end in one of the first three — the
        zero-orphan invariant the chaos harness asserts.
        """
        if self.completed:
            return "retried-completed" if self.retried else "completed"
        if self.timed_out:
            return "timed-out"
        return "in-flight"

    def append_attempt(self, record: AttemptRecord) -> None:
        """Append a dispatch-attempt record (called by the resilience layer).

        A query makes a handful of attempts at most, so each append
        copies the tuple rather than giving every query a list.
        """
        self.attempts += (record,)

    @property
    def end_to_end_latency(self) -> float:
        """Response latency: completion minus arrival."""
        if self.arrival_time is None or self.completion_time is None:
            raise ServiceError(f"query {self.qid} has not completed")
        return self.completion_time - self.arrival_time

    def demand_for(self, stage_name: str) -> float:
        """Work demand for a stage; raises if the stage is unknown."""
        try:
            return self.demands[stage_name]
        except KeyError:
            raise ServiceError(
                f"query {self.qid} has no demand for stage {stage_name!r}"
            ) from None

    def record_for(self, stage_name: str) -> StageRecord:
        """First record the query collected at the named stage."""
        for record in self.records:
            if record.stage_name == stage_name:
                return record
        raise ServiceError(
            f"query {self.qid} has no record for stage {stage_name!r}"
        )

    def append_record(self, record: StageRecord) -> None:
        """Append a latency record (called by the service instance)."""
        self.records.append(record)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "done" if self.completed else "in-flight"
        return f"Query(qid={self.qid}, {status}, records={len(self.records)})"
