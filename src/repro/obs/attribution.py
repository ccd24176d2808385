"""Per-query latency attribution and the critical-path roll-up.

PowerChief's whole argument is attribution — Equation 1 identifies
*where* latency accrues so the budget boosts the true bottleneck.  This
module answers the same question per query, after the fact: every
completed query's end-to-end latency is decomposed over the simulated
timeline into five disjoint components that **sum to the measured
total**, exactly whenever floating point allows it:

* ``queue``   — waiting in an instance's queue (StageRecord enqueue→start);
* ``service`` — being processed by an instance (StageRecord start→finish);
* ``fault``   — time inside dispatch attempts that settled badly
  (timed-out / crash-requeue / abandoned): work the query paid for and
  lost, invisible in the StageRecords because abandoned jobs discard
  their record;
* ``retry_backoff`` — deliberate gaps the resilience layer inserted
  between a failed attempt settling and the next dispatch (exponential
  backoff, no-instance re-probe delays);
* ``hop``     — everything else: RPC/fabric transit between stages,
  including injected RPC delay and retransmission stalls.

The decomposition is a sweep over the query's ``[arrival, completion]``
window.  Labelled intervals (clipped to the window) partition it into
elementary segments; each segment takes the highest-priority label
present (service > queue > fault > retry_backoff), which makes the
overlapping records of a scatter-gather stage well-defined.  ``hop`` is
the residual ``e2e - covered``, so the five components, added left to
right in :data:`COMPONENTS` order, sum bit-exactly to
``Query.end_to_end_latency`` whenever some float ``hop`` gives that sum,
and otherwise to within one ulp of it — the invariant the test suite
pins.  (No float ``hop`` sums exactly for about 2% of uniformly drawn
``(covered, e2e)`` pairs: with one 0.013976156881900157 s service
interval in a 0.0510171503227743 s window the sum ends one ulp low.)
A query whose records follow one another inside the window, with no
fault or backoff interval, books each record's queue and service time
directly: those are exactly the sweep's segments, in the sweep's order.

:class:`AttributionCollector` keeps each live query's facts as an
``Application`` completion listener and attributes them, once each, when
its views are first read; :func:`tail_report` rolls up the
slowest queries alone, the tail the paper's conclusion leaves for
future work: its blame ranking names the stage that dominates the tail,
and its ``queue``/``service`` totals say whether waiting or serving did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.obs.metrics import Counter, MetricsRegistry
    from repro.obs.trace import Span
    from repro.service.query import Query
    from repro.service.records import AttemptRecord

__all__ = [
    "COMPONENTS",
    "TRANSIT_STAGE",
    "QueryAttribution",
    "AttributionReport",
    "AttributionCollector",
    "TAIL_FRACTION",
    "attribute_query",
    "attributions_from_spans",
    "report_from_attributions",
    "tail_report",
]

#: The five components every end-to-end latency decomposes into.
COMPONENTS = ("queue", "service", "fault", "retry_backoff", "hop")

#: Pseudo-stage that owns ``hop`` time (it belongs to no single stage).
TRANSIT_STAGE = "(transit)"

#: The share of queries, slowest first, that :func:`tail_report` rolls up.
TAIL_FRACTION = 0.01

#: Attempt outcomes whose [dispatched, settled] window is lost time.
_FAULT_OUTCOMES = frozenset({"timed-out", "crash-requeue", "abandoned"})

#: Sweep priority: when intervals overlap, the instant belongs to the
#: highest-priority label.  ``hop`` is never an interval — it is the
#: residual of the window.
_PRIORITY = {"service": 3, "queue": 2, "fault": 1, "retry_backoff": 0}


@dataclass(frozen=True)
class QueryAttribution:
    """One query's end-to-end latency, fully decomposed.

    ``components`` maps each of :data:`COMPONENTS` to seconds.  Added
    left to right in :data:`COMPONENTS` order they sum exactly to
    ``e2e_latency`` whenever some float ``hop`` allows it, and otherwise
    to within one ulp of it (a compensated sum, such as the builtin
    ``sum`` from Python 3.12, may differ by an ulp more); ``per_stage``
    splits the same seconds by stage name, with ``hop`` time booked to
    :data:`TRANSIT_STAGE`.
    """

    qid: int
    arrival_time: float
    completion_time: float
    e2e_latency: float
    retried: bool
    components: Mapping[str, float]
    per_stage: Mapping[str, Mapping[str, float]]

    @property
    def blame_stage(self) -> str:
        """The stage (or transit) that owns the most attributed time.

        Ties break alphabetically, as in
        :meth:`AttributionReport.blame_ranking`.
        """
        blame = ""
        heaviest = -math.inf
        for stage, parts in self.per_stage.items():
            seconds = sum(parts.values())
            if seconds > heaviest or (seconds == heaviest and stage < blame):
                blame = stage
                heaviest = seconds
        return blame

    def to_dict(self) -> dict[str, Any]:
        return {
            "qid": self.qid,
            "arrival_time": self.arrival_time,
            "completion_time": self.completion_time,
            "e2e_latency": self.e2e_latency,
            "retried": self.retried,
            "components": dict(self.components),
            "per_stage": {
                stage: dict(parts) for stage, parts in self.per_stage.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QueryAttribution":
        return cls(
            qid=data["qid"],
            arrival_time=data["arrival_time"],
            completion_time=data["completion_time"],
            e2e_latency=data["e2e_latency"],
            retried=data["retried"],
            components=dict(data["components"]),
            per_stage={
                stage: dict(parts)
                for stage, parts in data["per_stage"].items()
            },
        )


#: One stage visit as the booking reads it: (enqueue, start, finish, stage).
_Visit = tuple[float, float, float, str]
#: One labelled interval as the sweep reads it: (start, end, label, stage).
_Interval = tuple[float, float, str, str]
#: What :func:`_attribute` decomposes a completed query from, as one flat
#: tuple: qid, arrival, completion, e2e latency, retried and the tuple of
#: lost intervals, then four fields per visit (enqueue, start, finish,
#: stage).
_Facts = tuple[Any, ...]


def _lost_intervals(attempts: Sequence["AttemptRecord"]) -> list[_Interval]:
    """The ``fault`` and ``retry_backoff`` intervals of a query's attempts.

    A lost window is a failed attempt's [dispatched, settled]; the gap
    after a failed attempt runs to the next dispatch at the same stage
    (backoff, crash re-place or no-instance re-probe).
    """
    intervals: list[_Interval] = []
    by_stage: dict[str, list["AttemptRecord"]] = {}
    for attempt in attempts:
        by_stage.setdefault(attempt.stage_name, []).append(attempt)
    for stage_name, stage_attempts in by_stage.items():
        stage_attempts.sort(key=lambda a: (a.dispatched_time, a.attempt))
        dispatch_times = sorted(a.dispatched_time for a in stage_attempts)
        for attempt in stage_attempts:
            settled = attempt.settled_time
            if settled is None:
                continue
            if attempt.outcome in _FAULT_OUTCOMES and settled > attempt.dispatched_time:
                intervals.append(
                    (attempt.dispatched_time, settled, "fault", stage_name)
                )
            if attempt.outcome != "completed":
                # First re-dispatch at this stage after the settle.
                for later in dispatch_times:
                    if later > settled:
                        intervals.append(
                            (settled, later, "retry_backoff", stage_name)
                        )
                        break
    return intervals


def _book(
    components: dict[str, float],
    per_stage: dict[str, dict[str, float]],
    stage: str,
    component: str,
    seconds: float,
) -> None:
    components[component] += seconds
    bucket = per_stage.setdefault(stage, {})
    bucket[component] = bucket.get(component, 0.0) + seconds


def _in_order(visits: Sequence[_Visit], arrival: float, completion: float) -> bool:
    """Whether the visits follow one another inside ``[arrival,
    completion]`` in list order, each ordered and none overlapping the
    next."""
    previous = arrival
    for enqueue, start, finish, _ in visits:
        if not previous <= enqueue <= start <= finish:
            return False
        previous = finish
    return previous <= completion


def _sweep(
    intervals: list[_Interval],
    arrival: float,
    completion: float,
    components: dict[str, float],
    per_stage: dict[str, dict[str, float]],
) -> None:
    """Clip every interval to the window, then book each elementary
    segment between boundary points to the highest-priority label
    covering it (the first such interval on a tie)."""
    clipped = []
    for start, end, label, stage in intervals:
        start = max(start, arrival)
        end = min(end, completion)
        if end > start:
            clipped.append((start, end, label, stage))
    if not clipped:
        return
    bounds = sorted(
        {point for start, end, _, _ in clipped for point in (start, end)}
    )
    for left, right in zip(bounds, bounds[1:]):
        winner: Optional[tuple[str, str]] = None
        rank = -1
        for start, end, label, stage in clipped:
            if start <= left and end >= right and _PRIORITY[label] > rank:
                winner = (label, stage)
                rank = _PRIORITY[label]
        if winner is not None:
            _book(components, per_stage, winner[1], winner[0], right - left)


def _attribute(
    qid: int,
    arrival: float,
    completion: float,
    e2e: float,
    retried: bool,
    visits: Sequence[_Visit],
    losses: Sequence[_Interval],
) -> QueryAttribution:
    """Book the visits and lost intervals over ``[arrival, completion]``,
    then book the residual as ``hop``, so the components sum to ``e2e``:
    exactly whenever some float ``hop`` gives ``covered + hop == e2e``,
    and otherwise within one ulp of ``e2e``.

    With no lost interval and the visits in order (:func:`_in_order`),
    the sweep's segments are exactly each visit's queue then service
    interval, so those are booked directly: the same differences, added
    in the same order.  Every other query (overlapping scatter-gather
    records, faults, retries) takes the sweep.
    """
    components = dict.fromkeys(COMPONENTS, 0.0)
    per_stage: dict[str, dict[str, float]] = {}
    if not losses and _in_order(visits, arrival, completion):
        for enqueue, start, finish, stage in visits:
            if start > enqueue:
                _book(components, per_stage, stage, "queue", start - enqueue)
            if finish > start:
                _book(components, per_stage, stage, "service", finish - start)
    else:
        intervals: list[_Interval] = []
        for enqueue, start, finish, stage in visits:
            intervals.append((enqueue, start, "queue", stage))
            intervals.append((start, finish, "service", stage))
        intervals.extend(losses)
        _sweep(intervals, arrival, completion, components, per_stage)
    # Hop is the residual.  Then ``covered + hop`` (the left-to-right
    # sum in COMPONENTS order) is exactly ``e2e`` whenever some float
    # hop makes it so, and one ulp away otherwise.
    covered = (
        components["queue"]
        + components["service"]
        + components["fault"]
        + components["retry_backoff"]
    )
    hop = e2e - covered
    components["hop"] = hop
    per_stage.setdefault(TRANSIT_STAGE, {})["hop"] = hop
    return QueryAttribution(
        qid=qid,
        arrival_time=arrival,
        completion_time=completion,
        e2e_latency=e2e,
        retried=retried,
        components=components,
        per_stage=per_stage,
    )


def attribute_query(query: "Query") -> QueryAttribution:
    """Decompose one completed query's latency; see the module docstring."""
    return _attribute_facts(_facts(query))


def _facts(query: "Query") -> _Facts:
    """The completed query's stamps, lost intervals and complete stage
    records: everything :func:`_attribute` reads, flat."""
    if query.arrival_time is None or query.completion_time is None:
        raise ConfigurationError(
            f"query {query.qid} has not completed; nothing to attribute"
        )
    facts = [
        query.qid,
        query.arrival_time,
        query.completion_time,
        query.end_to_end_latency,
        query.retried,
        tuple(_lost_intervals(query.attempts)) if query.attempts else (),
    ]
    for rec in query.records:
        if rec.start_time is not None and rec.finish_time is not None:
            facts += (rec.enqueue_time, rec.start_time, rec.finish_time, rec.stage_name)
    return tuple(facts)


def _attribute_facts(facts: _Facts) -> QueryAttribution:
    """:func:`_attribute` of one query's flat facts."""
    fields = iter(facts[6:])
    visits = tuple(zip(fields, fields, fields, fields))
    return _attribute(
        facts[0], facts[1], facts[2], facts[3], facts[4], visits, facts[5]
    )


def attributions_from_spans(spans: Iterable["Span"]) -> list[QueryAttribution]:
    """Approximate per-query attributions from an exported span trace.

    ``repro explain`` falls back to this when a run archived only the
    span trace: queue/service come from the spans, the residual of each
    query's span envelope is booked as ``hop``, and the fault and
    retry components are zero (failed attempts never produced a span).
    The arrival/completion stamps are approximated by the envelope, so
    the sum-to-e2e invariant holds against that envelope.  Booking and
    the residual are :func:`attribute_query`'s, so on a fault-free run
    with no hop delay the two agree query for query.
    """
    by_qid: dict[int, list[_Visit]] = {}
    for span in spans:
        by_qid.setdefault(span.qid, []).append(
            (span.enqueue_time, span.start_time, span.finish_time, span.stage)
        )
    out = []
    for qid in sorted(by_qid):
        visits = by_qid[qid]
        arrival = min(visit[0] for visit in visits)
        completion = max(visit[2] for visit in visits)
        e2e = completion - arrival
        out.append(
            _attribute(qid, arrival, completion, e2e, False, visits, [])
        )
    return out


@dataclass
class AttributionReport:
    """The roll-up across every attributed query."""

    count: int
    failed: int
    total_e2e: float
    component_totals: dict[str, float]
    stage_totals: dict[str, dict[str, float]]
    blame_counts: dict[str, int]

    def add(self, attribution: QueryAttribution) -> None:
        """Fold one query's attribution into the totals."""
        self.count += 1
        self.total_e2e += attribution.e2e_latency
        component_totals = self.component_totals
        for name, seconds in attribution.components.items():
            component_totals[name] += seconds
        stage_totals = self.stage_totals
        for stage, parts in attribution.per_stage.items():
            bucket = stage_totals.setdefault(stage, {})
            for name, seconds in parts.items():
                bucket[name] = bucket.get(name, 0.0) + seconds
        blame = attribution.blame_stage
        self.blame_counts[blame] = self.blame_counts.get(blame, 0) + 1

    def blame_ranking(self) -> list[tuple[str, float]]:
        """Stages by total attributed seconds, heaviest first.

        Ties break alphabetically so two runs of the same seed rank
        identically.
        """
        return sorted(
            (
                (stage, sum(parts.values()))
                for stage, parts in self.stage_totals.items()
            ),
            key=lambda item: (-item[1], item[0]),
        )

    def component_fractions(self) -> dict[str, float]:
        """Each component's share of the total end-to-end time."""
        if self.total_e2e <= 0.0:
            return {name: 0.0 for name in COMPONENTS}
        return {
            name: self.component_totals.get(name, 0.0) / self.total_e2e
            for name in COMPONENTS
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "failed": self.failed,
            "total_e2e": self.total_e2e,
            "component_totals": dict(self.component_totals),
            "stage_totals": {
                stage: dict(parts)
                for stage, parts in self.stage_totals.items()
            },
            "blame_counts": dict(self.blame_counts),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AttributionReport":
        return cls(
            count=data["count"],
            failed=data["failed"],
            total_e2e=data["total_e2e"],
            component_totals=dict(data["component_totals"]),
            stage_totals={
                stage: dict(parts)
                for stage, parts in data["stage_totals"].items()
            },
            blame_counts=dict(data["blame_counts"]),
        )


def report_from_attributions(
    attributions: Iterable[QueryAttribution],
    failed: int = 0,
) -> AttributionReport:
    """Roll a list of attributions (e.g. loaded or span-derived) up."""
    report = AttributionReport(
        count=0,
        failed=failed,
        total_e2e=0.0,
        component_totals=dict.fromkeys(COMPONENTS, 0.0),
        stage_totals={},
        blame_counts={},
    )
    for attribution in attributions:
        report.add(attribution)
    return report


def tail_report(
    attributions: Sequence[QueryAttribution],
) -> Optional[AttributionReport]:
    """The roll-up of the slowest ``max(1, round(TAIL_FRACTION * n))``
    attributions, or ``None`` for an empty input (it has no tail).

    The slowest are taken by ``e2e_latency``, ties in input order.  The
    tail's blame ranking names its dominant stage, and its ``queue`` and
    ``service`` totals split the stage time into waiting and serving.
    """
    if not attributions:
        return None
    size = max(1, round(TAIL_FRACTION * len(attributions)))
    slowest = sorted(attributions, key=lambda qa: qa.e2e_latency, reverse=True)
    return report_from_attributions(slowest[:size])


class AttributionCollector:
    """Attributes queries as an application completion listener, when
    the attribution is read.

    The completion path keeps facts, not views: each completed query is
    kept as one flat tuple of what :func:`attribute_query` reads of it
    (its stamps, lost intervals and visits), and nothing is attributed
    there.  The first read of :meth:`report`, :attr:`attributions` or
    the ``repro_attributed_seconds_total`` counter attributes every kept
    query not yet folded, once and in completion order, into all three,
    so each float is summed in the order an eager roll-up would sum it.

    Bounded like the other pillars: past ``max_queries`` the collector
    folds what it kept, then folds each later query as it completes,
    into the roll-up and the counter but not the per-query list (counted
    in ``dropped``), so the report stays exact even on runs far larger
    than the buffer.
    """

    def __init__(
        self,
        max_queries: int = 200_000,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        if max_queries <= 0:
            raise ConfigurationError(
                f"max_queries must be > 0, got {max_queries}"
            )
        self.max_queries = int(max_queries)
        self.registry = registry
        self.dropped = 0
        self._report = report_from_attributions(())
        #: Kept queries not yet folded, in completion order.
        self._pending: list[_Facts] = []
        #: The kept queries folded so far, attributed, in completion order.
        self._attributions: list[QueryAttribution] = []
        #: ``repro_attributed_seconds_total``, registered at the first
        #: completion.
        self._counter: Optional["Counter"] = None

    # ------------------------------------------------------------------
    def attach(self, application: Any) -> None:
        """Subscribe to an application's completions and failures."""
        application.add_completion_listener(self.observe)
        application.add_failure_listener(self.observe_failure)

    def observe(self, query: "Query") -> None:
        """Keep one completed query's facts (past ``max_queries``, fold
        it instead)."""
        if self.registry is not None and self._counter is None:
            self._counter = self.registry.counter(
                "repro_attributed_seconds_total",
                "End-to-end latency attributed, by component",
            )
            self._counter.on_read(self._fold)
        facts = _facts(query)
        if len(self._attributions) + len(self._pending) < self.max_queries:
            self._pending.append(facts)
        else:
            self._fold()
            self.dropped += 1
            self._add(_attribute_facts(facts))

    def observe_failure(self, query: "Query") -> None:
        """Count a terminal failure (no e2e latency to attribute)."""
        self._report.failed += 1
        if self.registry is not None:
            self.registry.counter(
                "repro_attribution_failures_total",
                "Queries that failed terminally (nothing to attribute)",
            ).inc()

    def _fold(self) -> None:
        """Attribute the kept queries not yet folded, in completion
        order, into the kept attributions, the roll-up and the counter."""
        built = self._attributions
        for facts in self._pending:
            attribution = _attribute_facts(facts)
            built.append(attribution)
            self._add(attribution)
        self._pending.clear()

    def _add(self, attribution: QueryAttribution) -> None:
        """Fold one attribution into the roll-up and the counter."""
        self._report.add(attribution)
        counter = self._counter
        if counter is not None:
            for name, seconds in attribution.components.items():
                if seconds > 0.0:
                    counter.inc(seconds, component=name)

    # ------------------------------------------------------------------
    @property
    def attributions(self) -> list[QueryAttribution]:
        """The kept queries' attributions, in completion order."""
        self._fold()
        return self._attributions

    def __len__(self) -> int:
        return len(self._attributions) + len(self._pending)

    def report(self) -> AttributionReport:
        """A copy of the roll-up so far."""
        self._fold()
        return AttributionReport.from_dict(self._report.to_dict())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AttributionCollector({len(self) + self.dropped} queries, "
            f"{self._report.failed} failed)"
        )
