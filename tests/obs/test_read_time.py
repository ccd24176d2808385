"""Read-time counters render what per-event writes rendered.

The query counters read ``Application``'s own counts, the SLO outcome
counter reads the tracker's, the attribution failure and dropped-span
counters read the collector's and the trace buffer's, and the
attribution roll-up (report, attributions and
``repro_attributed_seconds_total``) is built on its first read.
:class:`EagerWrites` feeds a second registry the writes those series
used to take on every event: an ``inc`` per submit, completion, timeout,
settle and dropped span, the latency histogram per completion and each
completion's positive attributed components.  Read at any point of a
run, the two registries render the same Prometheus text, series that
must stay absent included.  :class:`TestOperationCounts` pins that the
completion path makes no registry call per query, per failure or per
dropped span.
"""

from __future__ import annotations

import collections
from typing import Optional
from unittest import mock

from repro.cluster.frequency import HASWELL_LADDER
from repro.cluster.machine import Machine
from repro.obs import (
    AttributionCollector,
    MetricsRegistry,
    Observability,
    SloTracker,
    TraceBuffer,
)
from repro.obs import attribution, metrics
from repro.obs.attribution import attribute_query
from repro.scenario.builder import StackBuilder
from repro.scenario.spec import ScenarioSpec
from repro.service.application import Application
from repro.service.query import Query
from repro.service.resilience import RetryPolicy
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

from tests.conftest import make_profile

#: The series the read-time counters took over, with their help texts.
HELP = {
    "repro_queries_submitted_total": "Queries injected into the pipeline",
    "repro_queries_completed_total": "Queries that finished the last pipeline stage",
    "repro_queries_timed_out_total": (
        "Queries that failed terminally after exhausting retries"
    ),
    "repro_query_e2e_latency_seconds": "End-to-end response latency",
    "repro_slo_queries_total": "Queries judged against the SLO target",
    "repro_attributed_seconds_total": "End-to-end latency attributed, by component",
    "repro_attribution_failures_total": (
        "Queries that failed terminally (nothing to attribute)"
    ),
    "repro_trace_spans_dropped_total": (
        "Spans discarded because the trace buffer was full"
    ),
}

ALL_PILLARS = ("trace", "metrics", "audit", "attribution", "slo", "energy", "stream")


class EagerWrites:
    """A registry fed, per event, the writes the read-time series replaced.

    Its listeners are attached after the run's own pillars, so each sees
    a settle after the tracker and the collector have.  With a tracer,
    its ``emit_record`` is wrapped to count each span it drops.
    """

    def __init__(
        self,
        application: Application,
        slo: SloTracker,
        tracer: Optional[TraceBuffer] = None,
    ) -> None:
        self.registry = MetricsRegistry()
        self.app = application.name
        self.slo = slo
        application.add_completion_listener(self._completed)
        application.add_failure_listener(self._failed)
        if tracer is not None:
            emit_record = tracer.emit_record

            def counted(*args) -> None:
                dropped = tracer.dropped
                emit_record(*args)
                if tracer.dropped > dropped:
                    self.registry.counter(
                        "repro_trace_spans_dropped_total",
                        HELP["repro_trace_spans_dropped_total"],
                    ).inc()

            # Instances look ``emit_record`` up on every completion.
            tracer.emit_record = counted

    def submitted(self) -> None:
        self.registry.counter(
            "repro_queries_submitted_total", HELP["repro_queries_submitted_total"]
        ).inc(app=self.app)

    def _completed(self, query: Query) -> None:
        latency = query.end_to_end_latency
        self.registry.counter(
            "repro_queries_completed_total", HELP["repro_queries_completed_total"]
        ).inc(app=self.app)
        self.registry.histogram(
            "repro_query_e2e_latency_seconds",
            HELP["repro_query_e2e_latency_seconds"],
        ).observe(latency)
        self._judge(latency <= self.slo.target_s)
        counter = self.registry.counter(
            "repro_attributed_seconds_total", HELP["repro_attributed_seconds_total"]
        )
        for component, seconds in attribute_query(query).components.items():
            if seconds > 0.0:
                counter.inc(seconds, component=component)

    def _failed(self, query: Query) -> None:
        self.registry.counter(
            "repro_queries_timed_out_total", HELP["repro_queries_timed_out_total"]
        ).inc(app=self.app)
        self._judge(False)
        self.registry.counter(
            "repro_attribution_failures_total",
            HELP["repro_attribution_failures_total"],
        ).inc()

    def _judge(self, ok: bool) -> None:
        self.registry.counter(
            "repro_slo_queries_total", HELP["repro_slo_queries_total"]
        ).inc(outcome="ok" if ok else "violation")


def assert_same_text(registry: MetricsRegistry, eager: EagerWrites) -> None:
    for name in HELP:
        read, written = registry.get(name), eager.registry.get(name)
        assert (read is None) == (written is None), name
        if written is not None:
            assert read.render() == written.render()


def _tick_against_eager_writes(spec: ScenarioSpec) -> MetricsRegistry:
    """Tick ``spec`` and check the registry against the eager writes
    after every tick; the run's registry."""
    builder = StackBuilder(spec).build().arm()
    application, obs = builder.application, builder.observability
    eager = EagerWrites(application, obs.slo)
    # The load generator looks ``submit`` up on every arrival.
    submit = application.submit

    def counted(query: Query) -> None:
        submit(query)
        eager.submitted()

    application.submit = counted
    builder.start()
    deadline = 0.0
    while not builder.finished:
        deadline = min(deadline + 2.5, builder.end_s)
        builder.tick(deadline)
        assert_same_text(obs.metrics, eager)
    builder.collect()
    assert_same_text(obs.metrics, eager)
    return obs.metrics


class TestSameTextAsEagerWrites:
    def test_fault_free_run_leaves_the_unseen_series_absent(self):
        registry = _tick_against_eager_writes(
            ScenarioSpec.latency(
                "sirius",
                "powerchief",
                ("constant", 2.0),
                60.0,
                seed=3,
                observe=("metrics", "attribution", "slo"),
                # Every query meets it.
                slo_target_s=1000.0,
            )
        )
        assert registry.get("repro_queries_timed_out_total") is None
        text = registry.render_prometheus()
        assert 'outcome="ok"' in text
        assert 'outcome="violation"' not in text
        assert 'component="service"' in text
        assert 'component="fault"' not in text
        assert 'component="retry_backoff"' not in text

    def test_crash_heavy_run_counts_faults_and_violations(self):
        registry = _tick_against_eager_writes(
            ScenarioSpec.latency(
                "sirius",
                "powerchief",
                ("constant", 3.0),
                120.0,
                seed=11,
                chaos="crash-heavy",
                drain_s=30.0,
                observe=("metrics", "attribution", "slo"),
                slo_target_s=2.0,
            )
        )
        text = registry.render_prometheus()
        assert 'outcome="violation"' in text
        assert 'component="fault"' in text

    def test_timeouts_retries_and_every_settle(self, sim, machine):
        registry = MetricsRegistry()
        tracer = TraceBuffer(max_spans=2, registry=registry)
        application = Application(
            "solo",
            sim,
            machine,
            observability=Observability(tracer=tracer, metrics=registry),
        )
        stage = application.add_stage(make_profile("S", mean=1.0))
        stage.launch_instance(HASWELL_LADDER.min_level)
        application.attach_resilience(
            RetryPolicy(timeout_s=1.0, max_attempts=2, jitter_fraction=0.0),
            RandomStreams(1),
        )
        slo = SloTracker(target_s=1.0, registry=registry)
        slo.attach(application)
        AttributionCollector(registry=registry).attach(application)
        eager = EagerWrites(application, slo, tracer)
        # Read part-way through: at every settle.
        application.add_completion_listener(
            lambda query: assert_same_text(registry, eager)
        )
        application.add_failure_listener(
            lambda query: assert_same_text(registry, eager)
        )

        def submit(query: Query) -> None:
            application.submit(query)
            eager.submitted()
            assert_same_text(registry, eager)

        # 0.3 s of work queued behind 0.9 s times out once and completes
        # on its retry; 3 s of work times out twice and fails.
        for qid, (at, demand) in enumerate(
            ((0.0, 0.9), (0.0, 0.3), (5.0, 3.0), (20.0, 0.2))
        ):
            sim.schedule(at, lambda query=Query(qid, {"S": demand}): submit(query))
        sim.run()
        assert (application.completed, application.timed_out) == (3, 1)
        assert tracer.dropped > 0
        assert_same_text(registry, eager)
        text = registry.render_prometheus()
        assert 'repro_queries_timed_out_total{app="solo"} 1' in text
        assert "repro_attribution_failures_total 1" in text
        assert f"repro_trace_spans_dropped_total {tracer.dropped}" in text
        assert 'outcome="violation"' in text
        assert 'component="fault"' in text
        assert 'component="retry_backoff"' in text


def _counting(counts: collections.Counter, name: str, function):
    def counted(*args, **kwargs):
        counts[name] += 1
        return function(*args, **kwargs)

    return counted


def _run_counting(run) -> collections.Counter:
    """The registry lookups, ``Counter.inc`` calls, label keys and
    attributions made while ``run()`` runs."""
    counts: collections.Counter = collections.Counter()
    registry, counter = metrics.MetricsRegistry, metrics.Counter
    with mock.patch.object(
        registry, "counter", _counting(counts, "counter", registry.counter)
    ), mock.patch.object(
        registry, "histogram", _counting(counts, "histogram", registry.histogram)
    ), mock.patch.object(
        counter, "inc", _counting(counts, "inc", counter.inc)
    ), mock.patch.object(
        metrics, "_label_key", _counting(counts, "_label_key", metrics._label_key)
    ), mock.patch.object(
        attribution, "_attribute", _counting(counts, "_attribute", attribution._attribute)
    ):
        run()
    return counts


class TestOperationCounts:
    """Operation counts do not depend on the host: during ``run()`` the
    registry lookups, ``Counter.inc`` calls, label keys and attributions
    stay the same however many queries complete."""

    def _run_counted(self, duration_s: float) -> tuple[int, collections.Counter]:
        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 2.0),
            duration_s,
            seed=3,
            observe=ALL_PILLARS,
            slo_target_s=5.0,
            # Power is sampled every interval, whatever completes: one
            # interval longer than the run keeps the per-sample writes
            # out of the comparison.
            sample_interval_s=1000.0,
        )
        builder = StackBuilder(spec).build().arm().start()
        counts = _run_counting(builder.run)
        builder.drain()
        builder.collect()
        return builder.application.completed, counts

    def test_counts_do_not_grow_with_completed_queries(self):
        short_completed, short = self._run_counted(30.0)
        long_completed, long = self._run_counted(60.0)
        assert long_completed > 1.5 * short_completed
        # The patches count: the first events register their series.
        assert short["counter"] > 0 and short["_label_key"] > 0
        assert long == short

    @staticmethod
    def _run_failing(rounds: int) -> tuple[int, collections.Counter]:
        """``rounds`` rounds, 20 s apart, on one stage traced into a
        4-span buffer: per round 0.3 s of work completes and 3 s times
        out twice and fails.  The registry is the tracer's and the
        collector's alone (the retry layer writes per attempt)."""
        sim = Simulator()
        registry = MetricsRegistry()
        tracer = TraceBuffer(max_spans=4, registry=registry)
        application = Application(
            "solo", sim, Machine(sim, n_cores=8), observability=Observability(tracer=tracer)
        )
        stage = application.add_stage(make_profile("S", mean=1.0))
        stage.launch_instance(HASWELL_LADDER.min_level)
        application.attach_resilience(
            RetryPolicy(timeout_s=1.0, max_attempts=2, jitter_fraction=0.0),
            RandomStreams(1),
        )
        collector = AttributionCollector(registry=registry)
        collector.attach(application)
        for index in range(rounds):
            for qid, demand in ((2 * index, 0.3), (2 * index + 1, 3.0)):
                query = Query(qid, {"S": demand})
                sim.schedule(20.0 * index, application.submit, query)
        counts = _run_counting(sim.run)
        assert (application.completed, application.timed_out) == (rounds, rounds)
        assert collector.report().failed == rounds
        return tracer.dropped, counts

    def test_counts_do_not_grow_with_failures_or_dropped_spans(self):
        short_dropped, short = self._run_failing(5)
        long_dropped, long = self._run_failing(10)
        assert long_dropped > 1.5 * short_dropped > 0
        assert short["counter"] > 0
        assert long == short
