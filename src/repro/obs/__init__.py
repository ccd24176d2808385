"""Observability: tracing, metrics, auditing and the accounting plane.

Core pillars, one facade:

* :mod:`repro.obs.trace` — per-(query, instance) spans in a bounded
  buffer, exportable as JSONL and Chrome trace-event JSON (Perfetto);
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms behind a registry with a Prometheus text exporter;
* :mod:`repro.obs.audit` — every controller decision recorded with the
  Equation-1/2/3 inputs that produced it.

The attribution-and-accounting plane rides on top of them:

* :mod:`repro.obs.attribution` — every completed query's end-to-end
  latency decomposed into queue / service / hop / retry / fault
  components that sum exactly to the measured total whenever a float
  ``hop`` allows it, and otherwise within one ulp of it;
* :mod:`repro.obs.slo` — windowed SLO attainment and error-budget burn
  against a latency objective;
* :mod:`repro.obs.energy` — the sampled power integral split per stage,
  reconciling with ``PowerTelemetry.energy_joules()``;
* :mod:`repro.obs.stream` — incremental JSONL snapshots on a simulated
  cadence, tail-able while the run is still going.

:class:`Observability` bundles them so a run threads one object.
Every pillar is optional and every producer guards its emit on ``is not
None`` — a run without observability pays a single attribute check per
potential emit point and nothing else.  The accounting pillars are
late-bound: construct them without a simulator and the stack builder's
``arm`` phase attaches them to whatever it built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.attribution import (
    AttributionCollector,
    AttributionReport,
    QueryAttribution,
    attribute_query,
    tail_report,
)
from repro.obs.audit import (
    AuditEntry,
    AuditLog,
    BoostEntry,
    BottleneckEntry,
    BudgetChangeEntry,
    GuardTransitionEntry,
    GuardViolationEntry,
    InstanceMetricReading,
    PlannedDropReading,
    RecycleEntry,
    SkipEntry,
    SloRetargetEntry,
    WithdrawEntry,
)
from repro.obs.energy import EnergyAttributor
from repro.obs.explain import build_explain_report, render_explain
from repro.obs.logging import bind_simulator, setup_logging, unbind_simulator
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    DEFAULT_POWER_BUCKETS_W,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.slo import SloTracker
from repro.obs.stream import StreamExporter
from repro.obs.trace import (
    Span,
    TraceBuffer,
    spans_from_chrome_trace,
    spans_from_jsonl,
    spans_to_chrome_trace,
    spans_to_jsonl,
)

__all__ = [
    "Observability",
    # trace
    "Span",
    "TraceBuffer",
    "spans_to_jsonl",
    "spans_from_jsonl",
    "spans_to_chrome_trace",
    "spans_from_chrome_trace",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEFAULT_POWER_BUCKETS_W",
    # audit
    "AuditEntry",
    "AuditLog",
    "BottleneckEntry",
    "BoostEntry",
    "RecycleEntry",
    "WithdrawEntry",
    "SkipEntry",
    "GuardViolationEntry",
    "GuardTransitionEntry",
    "BudgetChangeEntry",
    "SloRetargetEntry",
    "InstanceMetricReading",
    "PlannedDropReading",
    # accounting plane
    "AttributionCollector",
    "AttributionReport",
    "QueryAttribution",
    "attribute_query",
    "tail_report",
    "SloTracker",
    "EnergyAttributor",
    "StreamExporter",
    "build_explain_report",
    "render_explain",
    # logging
    "setup_logging",
    "bind_simulator",
    "unbind_simulator",
]


@dataclass
class Observability:
    """The bundle the stack builder threads through the system it builds.

    Any pillar may be ``None``.  A scenario's ``observe`` pillars decide
    which are built; the stack builder arms them and exposes the bundle
    as ``StackBuilder.observability``.
    """

    tracer: Optional[TraceBuffer] = None
    metrics: Optional[MetricsRegistry] = None
    audit: Optional[AuditLog] = None
    attribution: Optional[AttributionCollector] = None
    slo: Optional[SloTracker] = None
    energy: Optional[EnergyAttributor] = None
    stream: Optional[StreamExporter] = None
