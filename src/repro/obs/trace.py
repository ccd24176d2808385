"""Query tracing: per-visit spans and their exporters.

The service/query joint design already stamps enqueue / start / finish
times into each :class:`~repro.service.records.StageRecord`; the tracer
packs each completed record's fields into a bounded in-memory buffer and
turns them into :class:`Span` records — one per (query, instance) visit
— when the trace is first read.  Two export formats:

* **JSONL** — one span object per line, trivially greppable and
  schema-checked by the CI smoke step;
* **Chrome trace-event JSON** — loadable by Perfetto (ui.perfetto.dev)
  or ``chrome://tracing``: each stage renders as a process, each
  instance as a thread, and every visit as a ``queue`` slice followed by
  a ``serve`` slice, so a tail query's time is visually attributable at
  a glance.

Tracing is strictly opt-in: instances hold ``tracer=None`` by default
and guard the emit with one ``is not None`` check, so a run without a
tracer pays nothing.
"""

from __future__ import annotations

import json
import logging
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Optional, Union

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.metrics import MetricsRegistry
    from repro.service.records import StageRecord

logger = logging.getLogger(__name__)

__all__ = [
    "Span",
    "TraceBuffer",
    "spans_to_jsonl",
    "spans_from_jsonl",
    "spans_to_chrome_trace",
    "spans_from_chrome_trace",
]

#: Chrome trace events use microsecond timestamps.
_US = 1e6

#: A kept span's numbers, packed: its enqueue, start, finish and work
#: seconds, then its qid, instance id, queue length at arrival and
#: service level (``-1`` for none).  64 bytes.
_RECORD = struct.Struct("=4d4q")


def _check_order(
    qid: int, instance: str, enqueue: float, start: float, finish: float
) -> None:
    if not enqueue <= start <= finish:
        raise ConfigurationError(
            f"span for query {qid} at {instance} is not "
            f"ordered: enqueue={enqueue} start={start} finish={finish}"
        )


@dataclass(frozen=True, init=False)
class Span:
    """One query's visit to one service instance, fully timed.

    ``queue_at_arrival`` is the instance's realtime queue length ``L_i``
    the moment the query arrived (before it joined), and
    ``service_level`` the DVFS ladder level the core ran at when serving
    began — together they reconstruct the Equation-1 view the controller
    had of this instance.
    """

    qid: int
    stage: str
    instance_id: int
    instance: str
    enqueue_time: float
    start_time: float
    finish_time: float
    queue_at_arrival: int
    service_level: int
    work: float

    # Written out, not generated: a profile files every generated
    # dataclass ``__init__`` under one label, ``('<string>', 2,
    # '__init__')``, so a ``__post_init__`` check would be charged to
    # whichever of them the profiler kept, which varies from process
    # to process.
    def __init__(
        self,
        qid: int,
        stage: str,
        instance_id: int,
        instance: str,
        enqueue_time: float,
        start_time: float,
        finish_time: float,
        queue_at_arrival: int,
        service_level: int,
        work: float,
    ) -> None:
        _check_order(qid, instance, enqueue_time, start_time, finish_time)
        # Frozen: fields are set past the refusing ``__setattr__``, as
        # the generated ``__init__`` sets them.
        set_field = object.__setattr__
        set_field(self, "qid", qid)
        set_field(self, "stage", stage)
        set_field(self, "instance_id", instance_id)
        set_field(self, "instance", instance)
        set_field(self, "enqueue_time", enqueue_time)
        set_field(self, "start_time", start_time)
        set_field(self, "finish_time", finish_time)
        set_field(self, "queue_at_arrival", queue_at_arrival)
        set_field(self, "service_level", service_level)
        set_field(self, "work", work)

    @property
    def queuing_time(self) -> float:
        return self.start_time - self.enqueue_time

    @property
    def serving_time(self) -> float:
        return self.finish_time - self.start_time

    def to_dict(self) -> dict[str, Any]:
        """The fields in declaration order (the Chrome trace's ``args``
        keep that order)."""
        return {
            "qid": self.qid,
            "stage": self.stage,
            "instance_id": self.instance_id,
            "instance": self.instance,
            "enqueue_time": self.enqueue_time,
            "start_time": self.start_time,
            "finish_time": self.finish_time,
            "queue_at_arrival": self.queue_at_arrival,
            "service_level": self.service_level,
            "work": self.work,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(**data)


class TraceBuffer:
    """A bounded in-memory span sink.

    Keeps the **earliest** ``max_spans`` spans and counts the overflow —
    the head of a run is where controller behaviour is most interesting,
    and a silent ring buffer would make "trace looks complete" lies
    cheap.  ``dropped`` says exactly how much is missing.

    The completion path keeps facts: :meth:`emit_record` checks the
    record's order, packs its numbers into one 64-byte record appended
    to a ``bytearray`` and appends its stage and instance names (strings
    the stage and instance already hold) to two lists.  A kept span
    costs about 80 bytes and no object the garbage collector tracks; the
    record itself is not kept.  Each span is built from its kept record,
    in order, when first read.
    """

    def __init__(
        self,
        max_spans: int = 200_000,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        if max_spans <= 0:
            raise ConfigurationError(f"max_spans must be > 0, got {max_spans}")
        self.max_spans = int(max_spans)
        #: Each kept record's numbers, packed by :data:`_RECORD`, in emit
        #: order.
        self._records = bytearray()
        #: Each kept record's stage and instance names, in emit order.
        self._stages: list[str] = []
        self._instances: list[str] = []
        #: Spans built so far, one per kept record in order.
        self._spans: list[Span] = []
        self.dropped = 0
        self.registry = registry

    # ------------------------------------------------------------------
    def emit_record(self, qid: int, work: float, record: "StageRecord") -> None:
        """Keep a completed stage record's fields; its span is built when
        read."""
        start, finish = record.start_time, record.finish_time
        assert start is not None and finish is not None
        enqueue = record.enqueue_time
        if not enqueue <= start <= finish:
            _check_order(qid, record.instance_name, enqueue, start, finish)
        stages = self._stages
        if len(stages) >= self.max_spans:
            self.dropped += 1
            if self.dropped == 1 and self.registry is not None:
                self.registry.counter(
                    "repro_trace_spans_dropped_total",
                    "Spans discarded because the trace buffer was full",
                ).set_function(lambda: self.dropped)
            return
        level = record.service_level
        self._records += _RECORD.pack(
            enqueue,
            start,
            finish,
            work,
            qid,
            record.instance_id,
            record.queue_at_arrival,
            -1 if level is None else level,
        )
        stages.append(record.stage_name)
        self._instances.append(record.instance_name)

    def _built(self) -> list[Span]:
        """The spans, after building any records kept since the last read."""
        spans = self._spans
        built = len(spans)
        if built < len(self._stages):
            stages, instances = self._stages, self._instances
            # The view is released on leaving the block: while a buffer
            # export lives, the bytearray cannot grow.
            with memoryview(self._records) as view:
                for index, fields in enumerate(
                    _RECORD.iter_unpack(view[built * _RECORD.size:]), built
                ):
                    enqueue, start, finish, work, qid, iid, queue, level = fields
                    spans.append(
                        Span(
                            qid,
                            stages[index],
                            iid,
                            instances[index],
                            enqueue,
                            start,
                            finish,
                            queue,
                            level,
                            work,
                        )
                    )
        return spans

    # ------------------------------------------------------------------
    @property
    def spans(self) -> tuple[Span, ...]:
        return tuple(self._built())

    def __len__(self) -> int:
        return len(self._stages)

    def _warn_if_truncated(self, target: Path) -> None:
        if self.dropped:
            logger.warning(
                "trace written to %s is truncated: %d span(s) were dropped "
                "past the %d-span buffer bound",
                target,
                self.dropped,
                self.max_spans,
            )

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        target = Path(path)
        target.write_text(spans_to_jsonl(self._built()))
        self._warn_if_truncated(target)
        return target

    def write_chrome_trace(self, path: Union[str, Path]) -> Path:
        target = Path(path)
        trace = spans_to_chrome_trace(self._built())
        trace["otherData"]["dropped_spans"] = self.dropped
        target.write_text(json.dumps(trace, indent=None))
        self._warn_if_truncated(target)
        return target

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceBuffer({len(self)} spans, {self.dropped} dropped)"


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One compact JSON object per line (trailing newline included)."""
    lines = [
        json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":"))
        for span in spans
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def spans_from_jsonl(text: str) -> list[Span]:
    spans = []
    for line in text.splitlines():
        if line.strip():
            spans.append(Span.from_dict(json.loads(line)))
    return spans


# ----------------------------------------------------------------------
# Chrome trace-event format (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------
def spans_to_chrome_trace(spans: Iterable[Span]) -> dict[str, Any]:
    """Spans as a Chrome trace-event JSON object.

    Layout: one *process* per stage, one *thread* per instance, and per
    visit a ``queue`` complete event followed by a ``serve`` complete
    event.  The serve event's ``args`` carries the full span, so
    :func:`spans_from_chrome_trace` round-trips losslessly.
    """
    span_list = list(spans)
    stage_pids: dict[str, int] = {}
    instance_tids: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    for span in span_list:
        if span.stage not in stage_pids:
            pid = len(stage_pids) + 1
            stage_pids[span.stage] = pid
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"stage:{span.stage}"},
                }
            )
        if span.instance not in instance_tids:
            tid = len(instance_tids) + 1
            instance_tids[span.instance] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": stage_pids[span.stage],
                    "tid": tid,
                    "args": {"name": span.instance},
                }
            )
        pid = stage_pids[span.stage]
        tid = instance_tids[span.instance]
        events.append(
            {
                "name": "queue",
                "cat": "queue",
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": span.enqueue_time * _US,
                "dur": span.queuing_time * _US,
                "args": {"qid": span.qid, "queue_at_arrival": span.queue_at_arrival},
            }
        )
        events.append(
            {
                "name": f"serve q{span.qid}",
                "cat": "serve",
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": span.start_time * _US,
                "dur": span.serving_time * _US,
                "args": {"span": span.to_dict()},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs.trace", "span_count": len(span_list)},
    }


def spans_from_chrome_trace(data: dict[str, Any]) -> list[Span]:
    """Reconstruct the span list a :func:`spans_to_chrome_trace` dump encodes."""
    spans: list[Span] = []
    for event in data.get("traceEvents", []):
        if event.get("cat") == "serve" and "span" in event.get("args", {}):
            spans.append(Span.from_dict(event["args"]["span"]))
    return spans
