"""Tests for query tracing: span invariants and both exporters.

The live-pipeline test drives a real two-stage application with a
tracer attached and checks every span against the
:class:`~repro.service.records.StageRecord` stamps the service/query
joint design produced — the tracer must be a faithful projection of the
records, never a second clock.
"""

from __future__ import annotations

import dataclasses
import gc
import inspect
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.frequency import HASWELL_LADDER
from repro.errors import ConfigurationError
from repro.obs import AuditLog, MetricsRegistry, Observability
from repro.obs.trace import (
    Span,
    TraceBuffer,
    spans_from_chrome_trace,
    spans_from_jsonl,
    spans_to_chrome_trace,
    spans_to_jsonl,
)
from repro.service.application import Application
from repro.service.query import Query
from repro.service.records import StageRecord

from tests.conftest import make_profile


def make_span(qid: int = 0, **overrides) -> Span:
    fields = dict(
        qid=qid,
        stage="B",
        instance_id=1,
        instance="B_1",
        enqueue_time=1.0,
        start_time=1.5,
        finish_time=2.5,
        queue_at_arrival=2,
        service_level=8,
        work=1.0,
    )
    fields.update(overrides)
    return Span(**fields)


class TestSpan:
    def test_derived_times(self):
        span = make_span()
        assert span.queuing_time == pytest.approx(0.5)
        assert span.serving_time == pytest.approx(1.0)

    def test_rejects_unordered_stamps(self):
        with pytest.raises(ConfigurationError):
            make_span(start_time=0.5)
        with pytest.raises(ConfigurationError):
            make_span(finish_time=1.2)

    def test_dict_round_trip(self):
        span = make_span(qid=7)
        assert Span.from_dict(span.to_dict()) == span

    def test_dict_is_asdict_in_field_order(self):
        # The Chrome trace's ``args`` are not key-sorted, so its bytes
        # depend on this order.
        span = make_span(qid=7)
        assert list(span.to_dict().items()) == list(dataclasses.asdict(span).items())
        assert list(span.to_dict()) == [field.name for field in dataclasses.fields(Span)]

    def test_written_init_takes_every_field_in_order(self):
        fields = [field.name for field in dataclasses.fields(Span)]
        assert list(inspect.signature(Span).parameters) == fields
        span = make_span(qid=7)
        assert Span(*(getattr(span, name) for name in fields)) == span
        assert dataclasses.replace(span, work=2.0).work == 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            span.qid = 8  # type: ignore[misc]


def make_record(qid: int, **overrides) -> StageRecord:
    fields = dict(
        instance_id=qid % 3,
        instance_name=f"B_{qid % 3}",
        stage_name="B",
        enqueue_time=float(qid),
        start_time=qid + 0.5,
        finish_time=qid + 1.5,
        queue_at_arrival=qid % 4,
        service_level=None if qid % 5 == 0 else qid % 12,
    )
    fields.update(overrides)
    return StageRecord(**fields)


def eager_span(qid: int, work: float, record: StageRecord) -> Span:
    """The span ``emit_record`` used to build on the completion path."""
    return Span(
        qid=qid,
        stage=record.stage_name,
        instance_id=record.instance_id,
        instance=record.instance_name,
        enqueue_time=record.enqueue_time,
        start_time=record.start_time,
        finish_time=record.finish_time,
        queue_at_arrival=record.queue_at_arrival,
        service_level=(
            record.service_level if record.service_level is not None else -1
        ),
        work=work,
    )


class TestTraceBuffer:
    def test_bound_keeps_earliest_and_counts_drops(self):
        buffer = TraceBuffer(max_spans=2)
        for qid in range(5):
            buffer.emit_record(qid, 1.0, make_record(qid))
        assert [span.qid for span in buffer.spans] == [0, 1]
        assert buffer.dropped == 3
        assert len(buffer) == 2

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ConfigurationError):
            TraceBuffer(max_spans=0)


#: Stamps at the edges of the float range a packed record must carry
#: exactly: zero, subnormals, ordinary values and 1e300.
_STAMPS = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2e-308, 1.0, 1e300]),
    st.floats(min_value=0.0, max_value=1e300, allow_nan=False),
)


@st.composite
def _emits(draw):
    """One ``(qid, work, record)`` emit: qids past 2**31, no service
    level or any level, and stamps anywhere in the float range."""
    enqueue = draw(_STAMPS)
    start = draw(st.sampled_from([enqueue, enqueue + draw(_STAMPS)]))
    finish = draw(st.sampled_from([start, start + draw(_STAMPS)]))
    qid = draw(st.sampled_from([0, 7, 2**31 - 1, 2**31, 2**40, 2**63 - 1]))
    record = make_record(
        qid,
        enqueue_time=enqueue,
        start_time=start,
        finish_time=finish,
        service_level=draw(st.one_of(st.none(), st.integers(0, 11))),
    )
    return qid, draw(_STAMPS), record


class TestKeptRecords:
    """``emit_record`` packs the record's fields; spans are built when
    read."""

    def test_kept_fields_leave_the_collector(self):
        # One packed record and two name references per span: nothing
        # the buffer keeps for its spans is an object the collector
        # tracks, even before a collection, and no record is pinned.
        buffer = TraceBuffer()
        for qid in range(3):
            buffer.emit_record(qid, 1.0, make_record(qid))
        kept = gc.get_referents(*vars(buffer).values())
        assert {"B", "B_0", "B_1", "B_2"} <= set(kept)
        assert not any(gc.is_tracked(entry) for entry in kept)
        assert [span.qid for span in buffer.spans] == [0, 1, 2]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(st.just("read"), _emits()), max_size=30),
        st.integers(min_value=1, max_value=12),
    )
    def test_reads_back_as_the_eager_build(self, ops, bound):
        registry = MetricsRegistry()
        buffer = TraceBuffer(max_spans=bound, registry=registry)
        kept: list[Span] = []
        dropped = 0
        for op in ops:
            if op == "read":
                assert buffer.spans == tuple(kept)
                continue
            qid, work, record = op
            buffer.emit_record(qid, work, record)
            span = eager_span(qid, work, record)
            if len(kept) < bound:
                kept.append(span)
            else:
                dropped += 1
            # Drops are counted when emitted, not when read.  The counter
            # is read without creating it: the buffer registers it, with
            # its help text, at the first drop.
            assert buffer.dropped == dropped
            counter = registry.get("repro_trace_spans_dropped_total")
            assert (0 if counter is None else counter.value()) == dropped
            assert (counter is None) == (dropped == 0)
            assert len(buffer) == len(kept)
        assert buffer.spans == tuple(kept)
        assert spans_to_jsonl(buffer.spans) == spans_to_jsonl(kept)

    def test_exports_build_the_kept_records(self, tmp_path):
        buffer = TraceBuffer()
        records = [make_record(qid) for qid in range(4)]
        for qid, record in enumerate(records):
            buffer.emit_record(qid, 1.0, record)
        spans = [eager_span(qid, 1.0, record) for qid, record in enumerate(records)]
        jsonl = buffer.write_jsonl(tmp_path / "trace.jsonl").read_text()
        assert jsonl == spans_to_jsonl(spans)
        chrome = json.loads(
            buffer.write_chrome_trace(tmp_path / "trace.chrome.json").read_text()
        )
        assert spans_from_chrome_trace(chrome) == spans

    def test_unordered_record_is_refused_at_emit(self):
        buffer = TraceBuffer()
        with pytest.raises(ConfigurationError, match="query 3 at B_0 is not ordered"):
            buffer.emit_record(3, 1.0, make_record(3, start_time=2.0, finish_time=1.0))
        with pytest.raises(ConfigurationError, match="not ordered"):
            buffer.emit_record(4, 1.0, make_record(4, start_time=3.0))
        assert len(buffer) == 0
        assert buffer.dropped == 0


class TestJsonlRoundTrip:
    def test_round_trip(self):
        spans = [make_span(qid=qid) for qid in range(3)]
        text = spans_to_jsonl(spans)
        assert text.endswith("\n")
        assert len(text.splitlines()) == 3
        assert spans_from_jsonl(text) == spans

    def test_empty(self):
        assert spans_to_jsonl([]) == ""
        assert spans_from_jsonl("") == []


class TestChromeTrace:
    def test_round_trip_is_lossless(self):
        spans = [
            make_span(qid=0),
            make_span(qid=1, stage="A", instance="A_1", instance_id=0),
            make_span(qid=2, enqueue_time=3.0, start_time=3.0, finish_time=4.0),
        ]
        data = spans_to_chrome_trace(spans)
        assert spans_from_chrome_trace(data) == spans

    def test_layout_names_stages_and_instances(self):
        spans = [
            make_span(qid=0, stage="A", instance="A_1", instance_id=0),
            make_span(qid=1, stage="B", instance="B_1", instance_id=1),
        ]
        data = spans_to_chrome_trace(spans)
        events = data["traceEvents"]
        meta = [event for event in events if event["ph"] == "M"]
        process_names = {
            event["args"]["name"] for event in meta if event["name"] == "process_name"
        }
        thread_names = {
            event["args"]["name"] for event in meta if event["name"] == "thread_name"
        }
        assert process_names == {"stage:A", "stage:B"}
        assert thread_names == {"A_1", "B_1"}
        # Distinct stages get distinct pids; queue+serve slices per span.
        slices = [event for event in events if event["ph"] == "X"]
        assert len(slices) == 4
        assert len({event["pid"] for event in slices}) == 2

    def test_timestamps_are_microseconds(self):
        span = make_span()
        events = spans_to_chrome_trace([span])["traceEvents"]
        serve = next(e for e in events if e.get("cat") == "serve")
        assert serve["ts"] == pytest.approx(span.start_time * 1e6)
        assert serve["dur"] == pytest.approx(span.serving_time * 1e6)

    def test_json_serialisable(self):
        data = spans_to_chrome_trace([make_span()])
        assert spans_from_chrome_trace(json.loads(json.dumps(data))) == [make_span()]


class TestLivePipeline:
    def _run_traced_app(self, sim, machine, queries: int = 8):
        metrics = MetricsRegistry()
        observability = Observability(
            tracer=TraceBuffer(registry=metrics), metrics=metrics, audit=AuditLog()
        )
        app = Application("traced", sim, machine, observability=observability)
        stage_a = app.add_stage(make_profile("A", mean=0.2))
        stage_b = app.add_stage(make_profile("B", mean=1.0))
        level = HASWELL_LADDER.level_of(1.8)
        stage_a.launch_instance(level)
        stage_b.launch_instance(level)
        submitted = []
        for qid in range(queries):
            query = Query(qid=qid, demands={"A": 0.2, "B": 1.0})
            sim.schedule(0.3 * qid, lambda q=query: app.submit(q))
            submitted.append(query)
        sim.run(until=60.0)
        assert app.completed == queries
        return observability, submitted

    def test_spans_agree_with_stage_records(self, sim, machine):
        observability, queries = self._run_traced_app(sim, machine)
        tracer = observability.tracer
        assert tracer is not None
        spans = {(span.qid, span.stage): span for span in tracer.spans}
        # One span per (query, stage) visit, timed exactly like the record.
        assert len(spans) == len(tracer.spans)
        for query in queries:
            for record in query.records:
                span = spans[(query.qid, record.stage_name)]
                assert span.instance == record.instance_name
                assert span.enqueue_time == record.enqueue_time
                assert span.start_time == record.start_time
                assert span.finish_time == record.finish_time
                assert span.queue_at_arrival == record.queue_at_arrival
                assert span.service_level == record.service_level

    def test_span_lifecycle_orderings(self, sim, machine):
        observability, _ = self._run_traced_app(sim, machine)
        tracer = observability.tracer
        assert tracer is not None and len(tracer) > 0
        for span in tracer.spans:
            assert span.enqueue_time <= span.start_time <= span.finish_time
            assert span.queue_at_arrival >= 0
            assert span.service_level >= 0
            assert span.work > 0.0
        # Per instance, serve slices never overlap (one core each).
        by_instance: dict[str, list[Span]] = {}
        for span in tracer.spans:
            by_instance.setdefault(span.instance, []).append(span)
        for spans in by_instance.values():
            spans.sort(key=lambda s: s.start_time)
            for before, after in zip(spans, spans[1:]):
                assert before.finish_time <= after.start_time + 1e-9

    def test_metrics_counted_alongside(self, sim, machine):
        observability, queries = self._run_traced_app(sim, machine)
        metrics = observability.metrics
        assert metrics is not None
        submitted = metrics.counter("repro_queries_submitted_total")
        completed = metrics.counter("repro_queries_completed_total")
        assert submitted.value(app="traced") == len(queries)
        assert completed.value(app="traced") == len(queries)
        latency = metrics.histogram("repro_query_e2e_latency_seconds")
        assert latency.count == len(queries)

    def test_untraced_app_emits_nothing(self, sim, machine):
        app = Application("plain", sim, machine)
        stage = app.add_stage(make_profile("A", mean=0.2))
        stage.launch_instance(HASWELL_LADDER.level_of(1.8))
        assert stage.tracer is None
        assert stage.instances[0]._tracer is None


class TestDroppedSurfacing:
    """Truncation must be visible: counter, chrome header and log line."""

    def test_dropped_spans_land_in_the_registry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        buffer = TraceBuffer(max_spans=2, registry=registry)
        for qid in range(5):
            buffer.emit_record(qid, 1.0, make_record(qid))
        counter = registry.counter("repro_trace_spans_dropped_total")
        assert counter.value() == 3.0
        assert buffer.dropped == 3

    def test_no_registry_still_counts(self):
        buffer = TraceBuffer(max_spans=1)
        buffer.emit_record(0, 1.0, make_record(0))
        buffer.emit_record(1, 1.0, make_record(1))
        assert buffer.dropped == 1

    def test_chrome_trace_reports_dropped_count(self, tmp_path):
        buffer = TraceBuffer(max_spans=1)
        buffer.emit_record(0, 1.0, make_record(0))
        buffer.emit_record(1, 1.0, make_record(1))
        path = buffer.write_chrome_trace(tmp_path / "trace.chrome.json")
        data = json.loads(path.read_text())
        assert data["otherData"]["dropped_spans"] == 1
        assert data["otherData"]["span_count"] == 1

    @staticmethod
    def _capture_warnings():
        # setup_logging() (run by CLI tests) stops the "repro" logger
        # propagating, so capture with a handler on the module logger
        # itself rather than relying on caplog's root handler.
        import logging as logging_module

        records = []

        class Collect(logging_module.Handler):
            def emit(self, record):
                records.append(record)

        logger = logging_module.getLogger("repro.obs.trace")
        handler = Collect(level=logging_module.WARNING)
        logger.addHandler(handler)
        return logger, handler, records

    def test_exports_warn_on_truncation(self, tmp_path):
        buffer = TraceBuffer(max_spans=1)
        buffer.emit_record(0, 1.0, make_record(0))
        buffer.emit_record(1, 1.0, make_record(1))
        logger, handler, records = self._capture_warnings()
        try:
            buffer.write_jsonl(tmp_path / "trace.jsonl")
        finally:
            logger.removeHandler(handler)
        assert any("truncated" in record.getMessage() for record in records)

    def test_exports_stay_quiet_without_truncation(self, tmp_path):
        buffer = TraceBuffer(max_spans=10)
        buffer.emit_record(0, 1.0, make_record(0))
        logger, handler, records = self._capture_warnings()
        try:
            buffer.write_jsonl(tmp_path / "trace.jsonl")
            buffer.write_chrome_trace(tmp_path / "trace.chrome.json")
        finally:
            logger.removeHandler(handler)
        assert not records
