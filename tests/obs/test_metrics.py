"""Unit and property tests for the metrics registry.

The property suite pins the histogram quantile estimator against the
exact nearest-rank :func:`repro.util.percentile.percentile`: both use the
``ceil(q * n)`` rank, so the true percentile lands inside the winning
bucket and the interpolated estimate can never be more than one bucket
width away.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _label_key,
)
from repro.util.percentile import percentile


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c_total", "help")
        assert counter.value() == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_label_sets_are_independent(self):
        counter = Counter("c_total", "help")
        counter.inc(app="sirius")
        counter.inc(3.0, app="nlp")
        assert counter.value(app="sirius") == 1.0
        assert counter.value(app="nlp") == 3.0
        assert counter.value() == 0.0

    def test_rejects_negative_increment(self):
        counter = Counter("c_total", "help")
        for amount in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError):
                counter.inc(amount)
        assert counter.render()[2] == "c_total 0"

    def test_label_key_is_the_sorted_pairs(self):
        for labels in ({}, {"stage": 1}, {"stage": "1", "app": "sirius"}):
            assert _label_key(labels) == tuple(
                sorted((k, str(v)) for k, v in labels.items())
            )

    def test_render_sorts_label_sets(self):
        counter = Counter("c_total", "queries")
        counter.inc(app="nlp")
        counter.inc(app="sirius")
        lines = counter.render()
        assert lines[0] == "# HELP c_total queries"
        assert lines[1] == "# TYPE c_total counter"
        assert lines[2] == 'c_total{app="nlp"} 1'
        assert lines[3] == 'c_total{app="sirius"} 1'


class TestGauge:
    def test_set_and_inc(self):
        gauge = Gauge("g", "help")
        gauge.set(4.0)
        gauge.inc(-1.5)
        assert gauge.value() == 2.5

    def test_labelled_values(self):
        gauge = Gauge("g", "help")
        gauge.set(2, level=0)
        gauge.set(1, level=8)
        assert gauge.value(level=0) == 2.0
        assert gauge.value(level=8) == 1.0


class TestSetFunction:
    """A series can be read from a function at read time, and brought up
    to date just before it is read."""

    @pytest.mark.parametrize("kind", [Counter, Gauge])
    def test_reads_the_function_when_read(self, kind):
        source = [3]
        instrument = kind("x", "help")
        instrument.set_function(lambda: source[0])
        assert instrument.value() == 3.0
        assert isinstance(instrument.value(), float)
        source[0] = 7
        assert instrument.value() == 7.0
        assert instrument.render()[2:] == ["x 7"]

    @pytest.mark.parametrize("kind", [Counter, Gauge])
    def test_renders_as_the_stored_value_would(self, kind):
        stored, read = kind("x", "help"), kind("x", "help")
        stored.inc(0.25)
        stored.inc(2.0, app="nlp")
        read.inc(2.0, app="nlp")
        read.set_function(lambda: 0.25)
        assert read.render() == stored.render()
        assert read.value(app="nlp") == 2.0

    def test_replaces_the_stored_unlabelled_value(self):
        gauge = Gauge("g", "help")
        gauge.set(5.0)
        gauge.set_function(lambda: 1.5)
        assert gauge.value() == 1.5
        assert gauge.render()[2:] == ["g 1.5"]

    @pytest.mark.parametrize("kind", [Counter, Gauge])
    def test_a_labelled_series_reads_its_function(self, kind):
        source = [2]
        instrument = kind("x", "help")
        instrument.set_function(lambda: source[0], app="nlp")
        assert instrument.value(app="nlp") == 2.0
        assert isinstance(instrument.value(app="nlp"), float)
        assert instrument.value(app="sirius") == 0.0
        assert instrument.value() == 0.0
        source[0] = 9
        assert instrument.value(app="nlp") == 9.0
        assert instrument.render()[2:] == ['x{app="nlp"} 9']

    @pytest.mark.parametrize("kind", [Counter, Gauge])
    def test_labelled_functions_render_in_order_beside_stored_series(self, kind):
        stored, read = kind("x", "help"), kind("x", "help")
        for app, amount in (("a", 1.0), ("b", 2.5), ("c", 3.0), ("d", 4.0)):
            stored.inc(amount, app=app)
        read.inc(2.5, app="b")
        read.inc(4.0, app="d")
        read.set_function(lambda: 3, app="c")
        read.set_function(lambda: 1, app="a")
        read.set_function(lambda: 7, outcome="ok", app="e")
        stored.inc(7.0, app="e", outcome="ok")
        assert read.render() == stored.render()
        assert read.value(outcome="ok", app="e") == 7.0

    def test_a_labelled_function_replaces_the_stored_label_set(self):
        counter = Counter("c", "help")
        counter.inc(5.0, app="nlp")
        counter.inc(1.0, app="sirius")
        counter.set_function(lambda: 1.5, app="nlp")
        assert counter.value(app="nlp") == 1.5
        assert counter.render()[2:] == ['c{app="nlp"} 1.5', 'c{app="sirius"} 1']

    def test_on_read_refreshes_before_every_read(self):
        counter = Counter("c", "help")
        pending = [0.5, 0.25]

        def fold() -> None:
            while pending:
                counter.inc(pending.pop(0), component="queue")

        counter.on_read(fold)
        assert counter._values == {}
        assert counter.value(component="queue") == 0.75
        pending.append(1.0)
        assert counter.render()[2:] == ['c{component="queue"} 1.75']
        pending.append(2.0)
        assert counter.value(component="queue") == 3.75

    def test_each_producer_sharing_a_series_refreshes_it(self):
        registry = MetricsRegistry()
        for component, pending in (("queue", [0.5]), ("service", [0.25])):
            counter = registry.counter("repro_c_total", "help")

            def fold(counter=counter, component=component, pending=pending):
                while pending:
                    counter.inc(pending.pop(), component=component)

            counter.on_read(fold)
        text = registry.counter("repro_c_total").render()[2:]
        assert text == [
            'repro_c_total{component="queue"} 0.5',
            'repro_c_total{component="service"} 0.25',
        ]


class TestHistogram:
    def test_rejects_bad_buckets(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", "help", [])
        with pytest.raises(ConfigurationError):
            Histogram("h", "help", [1.0, 1.0])
        with pytest.raises(ConfigurationError):
            Histogram("h", "help", [2.0, 1.0])

    def test_cumulative_bucket_counts(self):
        hist = Histogram("h", "help", [1.0, 2.0])
        for value in (0.5, 0.7, 1.5, 99.0):
            hist.observe(value)
        assert hist.bucket_counts() == [(1.0, 2), (2.0, 3), (math.inf, 4)]
        assert hist.count == 4
        assert hist.sum == pytest.approx(101.7)

    def test_rejects_non_finite_values(self):
        hist = Histogram("h", "help", [1.0, 2.0])
        hist.observe(0.5)
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError):
                hist.observe(value)
        assert hist.bucket_counts() == [(1.0, 1), (2.0, 1), (math.inf, 1)]
        assert (hist.count, hist.sum) == (1, 0.5)

    def test_value_on_a_bound_lands_in_that_bucket(self):
        bounds = DEFAULT_LATENCY_BUCKETS_S
        for index, bound in enumerate(bounds):
            hist = Histogram("h", "help", bounds)
            hist.observe(bound)
            hist.observe(math.nextafter(bound, math.inf))
            cumulative = [count for _, count in hist.bucket_counts()]
            assert cumulative == [0] * index + [1] + [2] * (len(bounds) - index)
        hist = Histogram("h", "help", [1.0])
        hist.observe(-5.0)
        hist.observe(1e300)
        assert hist.bucket_counts() == [(1.0, 1), (math.inf, 2)]

    def test_render_prometheus_shape(self):
        hist = Histogram("h_seconds", "latency", [1.0])
        hist.observe(0.5)
        lines = hist.render()
        assert lines[0] == "# HELP h_seconds latency"
        assert lines[1] == "# TYPE h_seconds histogram"
        assert 'h_seconds_bucket{le="1"} 1' in lines
        assert 'h_seconds_bucket{le="+Inf"} 1' in lines
        assert "h_seconds_sum 0.5" in lines
        assert "h_seconds_count 1" in lines

    def test_quantile_empty_raises(self):
        hist = Histogram("h", "help", [1.0])
        with pytest.raises(ConfigurationError):
            hist.quantile(0.5)
        with pytest.raises(ConfigurationError):
            Histogram("h", "help", [1.0]).quantile(1.5)

    def test_quantile_interpolates_within_bucket(self):
        hist = Histogram("h", "help", [1.0, 2.0])
        # Four samples in (1, 2]: the median target is rank 2, half way
        # through the winning bucket's count.
        for value in (1.1, 1.2, 1.8, 1.9):
            hist.observe(value)
        assert hist.quantile(0.5) == pytest.approx(1.5)

    def test_quantile_clamps_to_last_finite_bound(self):
        hist = Histogram("h", "help", [1.0])
        hist.observe(50.0)
        assert hist.quantile(0.99) == 1.0


class TestMetricsRegistry:
    def test_get_or_create_shares_instruments(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_c_total", "help")
        second = registry.counter("repro_c_total")
        assert first is second
        assert len(registry) == 1

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("repro_name")
        with pytest.raises(ConfigurationError):
            registry.gauge("repro_name")
        with pytest.raises(ConfigurationError):
            registry.histogram("repro_name")

    def test_render_prometheus_is_sorted_and_complete(self):
        registry = MetricsRegistry()
        registry.counter("repro_b_total", "b").inc()
        registry.gauge("repro_a_gauge", "a").set(1.0)
        text = registry.render_prometheus()
        assert text.index("repro_a_gauge") < text.index("repro_b_total")
        assert text.endswith("\n")
        assert registry.names() == ["repro_a_gauge", "repro_b_total"]

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""
        assert MetricsRegistry().get("missing") is None


#: One request per instrument kind: (method, extra keyword arguments).
KINDS = [("counter", {}), ("gauge", {}), ("histogram", {"buckets": (1.0,)})]


class TestMetricHygiene:
    """The registry creates every instrument, so it refuses a name off
    the convention and a second, conflicting help text."""

    @pytest.mark.parametrize("kind, extra", KINDS)
    @pytest.mark.parametrize(
        "name",
        [
            "c_total",
            "repro_",
            "repro_Power_watts",
            "repro_power-watts",
            "repro_1st_total",
            "repro_power watts",
            "repro_power_watts\n",
            "",
        ],
    )
    def test_a_name_off_the_pattern_is_refused_when_created(
        self, kind, extra, name
    ):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError, match="does not match"):
            getattr(registry, kind)(name, "help", **extra)
        assert len(registry) == 0

    @pytest.mark.parametrize("kind, extra", KINDS)
    def test_a_different_help_text_is_refused(self, kind, extra):
        registry = MetricsRegistry()
        request = getattr(registry, kind)
        request("repro_things_total", "Things counted", **extra)
        with pytest.raises(ConfigurationError, match="registered with help"):
            request("repro_things_total", "Things counted twice", **extra)
        assert registry.get("repro_things_total").help_text == "Things counted"

    def test_a_help_text_is_refused_where_none_was_registered(self):
        registry = MetricsRegistry()
        registry.counter("repro_things_total")
        with pytest.raises(ConfigurationError, match="registered with help"):
            registry.counter("repro_things_total", "Things counted")

    @pytest.mark.parametrize("kind, extra", KINDS)
    def test_the_same_help_or_none_returns_the_same_instrument(
        self, kind, extra
    ):
        registry = MetricsRegistry()
        request = getattr(registry, kind)
        first = request("repro_things_total", "Things counted", **extra)
        assert request("repro_things_total", "Things counted", **extra) is first
        assert request("repro_things_total", **extra) is first
        assert request("repro_things_total", "", **extra) is first
        assert registry.names() == ["repro_things_total"]


def _winning_bucket_width(value: float) -> float:
    """Width of the default-latency bucket that contains ``value``."""
    previous = 0.0
    for bound in DEFAULT_LATENCY_BUCKETS_S:
        if value <= bound:
            return bound - previous
        previous = bound
    raise AssertionError(f"{value} beyond the last finite bound")


class TestQuantileVersusNearestRank:
    """Histogram quantiles bracket the exact nearest-rank percentile."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-4, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=400,
        ),
        st.sampled_from([0.5, 0.9, 0.95, 0.99]),
    )
    def test_estimate_within_one_bucket_width(self, values, q):
        hist = Histogram("h", "help", DEFAULT_LATENCY_BUCKETS_S)
        for value in values:
            hist.observe(value)
        exact = percentile(values, q * 100.0)
        estimate = hist.quantile(q)
        assert abs(estimate - exact) <= _winning_bucket_width(exact) + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-4, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=400,
        )
    )
    def test_p99_lands_in_the_exact_values_bucket(self, values):
        # Same rank rule on both sides => same winning bucket, so the
        # estimate is bounded below by the bucket's floor and above by
        # its ceiling.
        hist = Histogram("h", "help", DEFAULT_LATENCY_BUCKETS_S)
        for value in values:
            hist.observe(value)
        exact = percentile(values, 99.0)
        estimate = hist.quantile(0.99)
        previous = 0.0
        for bound in DEFAULT_LATENCY_BUCKETS_S:
            if exact <= bound:
                assert previous <= estimate <= bound
                break
            previous = bound


class TestPrometheusEscaping:
    """Label values and HELP strings must survive the exposition format."""

    def test_label_values_escape_quotes_backslashes_newlines(self):
        counter = Counter("c_total", "help")
        counter.inc(path='say "hi"\\now\nplease')
        line = counter.render()[2]
        assert line == (
            'c_total{path="say \\"hi\\"\\\\now\\nplease"} 1'
        )
        assert "\n" not in line

    def test_help_text_escapes_backslash_and_newline(self):
        gauge = Gauge("g", "first line\nsecond \\ line")
        assert gauge.render()[0] == "# HELP g first line\\nsecond \\\\ line"

    def test_histogram_help_escaped_too(self):
        hist = Histogram("h", "multi\nline", (1.0,))
        assert hist.render()[0] == "# HELP h multi\\nline"

    def test_benign_strings_render_unchanged(self):
        counter = Counter("c_total", "plain help")
        counter.inc(stage="ASR")
        assert counter.render()[0] == "# HELP c_total plain help"
        assert counter.render()[2] == 'c_total{stage="ASR"} 1'

    def test_registry_render_has_no_raw_newlines_inside_lines(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", "bad\nhelp").inc(label="a\nb")
        for line in registry.render_prometheus().splitlines():
            parsed_ok = line.startswith("#") or "{" in line or line == ""
            assert parsed_ok, f"unparseable exposition line: {line!r}"
