"""The metrics registry: counters, gauges and fixed-bucket histograms.

The paper's runtime is measurement-driven end to end, yet the repro's
stat plumbing grew ad hoc — bespoke fields on :class:`PowerTelemetry`,
hit/miss integers on the result cache, per-cell timing tuples in the
campaign driver.  This module gives all of them one registry with a
Prometheus-style text exporter, so any run can dump a single
machine-readable snapshot of everything it counted.

Design constraints:

* **Zero-cost when absent.**  Every producer holds an ``Optional``
  registry (or instrument) and guards its emit; no registry means no
  attribute lookups beyond a single ``is not None``.
* **Read when read.**  A series whose value its producer already keeps
  is read from it (``set_function``), and a producer that defers its
  updates brings a series up to date just before it is read
  (``on_read``): neither writes on every event.
* **Deterministic.**  Instruments carry no wall-clock state of their
  own; anything time-like is observed by the caller from the simulated
  clock, so two runs of the same seed render byte-identical dumps.
* **Fixed buckets.**  Histograms use explicit upper bounds chosen at
  creation (latency decades by default), cumulative Prometheus
  semantics, and a nearest-bucket quantile estimator whose error is
  bounded by one bucket width (pinned against
  :func:`repro.util.percentile.percentile` by the property suite).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEFAULT_POWER_BUCKETS_W",
]

#: Latency decades from 1 ms to ~2 minutes; queuing and serving times in
#: the Table-2/3 scenarios land squarely inside this range.
DEFAULT_LATENCY_BUCKETS_S = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
)

#: Machine draw for a 16-core Haswell ladder (floor ~1.7 W to peak ~160 W).
DEFAULT_POWER_BUCKETS_W = (2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 120.0, 160.0)

_LabelValue = Union[str, int, float]
_LabelKey = tuple[tuple[str, str], ...]

_INF = math.inf

#: The name every instrument is created under: Prometheus-style snake
#: case with the ``repro_`` prefix.  Variability belongs in label
#: values, not in name fragments.
_NAME_RE = re.compile(r"^repro_[a-z][a-z0-9_]*$")


def _label_key(labels: Mapping[str, _LabelValue]) -> _LabelKey:
    """The sorted ``(name, str(value))`` pairs that key one label set.

    No labels and one label, the hot cases, skip the sort; the keys are
    the ones the sort would build.
    """
    if not labels:
        return ()
    if len(labels) == 1:
        ((key, value),) = labels.items()
        return ((key, str(value)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` string per the exposition format.

    Backslash and line feed are the only characters the spec escapes in
    help text; everything else passes through, so benign strings render
    byte-identically to the pre-escaping output.
    """
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    """Escape a label value: backslash, double-quote and line feed."""
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: Mapping[str, _LabelValue]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(labels[key]))}"'
        for key in sorted(labels)
    )
    return "{" + inner + "}"


@dataclass
class _Series:
    """What counters and gauges share: values by label set, and the
    label sets read from a function instead."""

    name: str
    help_text: str
    _values: dict[_LabelKey, float] = field(default_factory=dict)
    _functions: dict[_LabelKey, Callable[[], float]] = field(default_factory=dict)
    #: Called before every read, one per producer that folds its updates
    #: in when the series is read.
    _refreshes: list[Callable[[], None]] = field(default_factory=list)

    #: The ``# TYPE`` the series renders under.
    kind: ClassVar[str]

    def set_function(
        self, function: Callable[[], float], **labels: _LabelValue
    ) -> None:
        """Read the series of ``labels`` from ``function`` from now on,
        as ``prometheus_client``'s ``labels(...).set_function`` does: a
        value the caller already keeps is read when the instrument is,
        not written on every change.  It replaces whatever that label
        set held."""
        key = _label_key(labels)
        self._values.pop(key, None)
        self._functions[key] = function

    def on_read(self, refresh: Callable[[], None]) -> None:
        """Call ``refresh`` before every :meth:`value` and
        :meth:`render`, so a producer that defers its updates brings the
        series up to date just before it is read.  Producers sharing the
        instrument each add their own."""
        self._refreshes.append(refresh)

    def value(self, **labels: _LabelValue) -> float:
        for refresh in self._refreshes:
            refresh()
        key = _label_key(labels)
        function = self._functions.get(key)
        if function is not None:
            return float(function())
        return self._values.get(key, 0.0)

    def render(self) -> list[str]:
        for refresh in self._refreshes:
            refresh()
        values = self._values
        if self._functions:
            values = {
                **values,
                **{key: float(fn()) for key, fn in self._functions.items()},
            }
        lines = [
            f"# HELP {self.name} {_escape_help(self.help_text)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        if not values:
            lines.append(f"{self.name} 0")
            return lines
        for key in sorted(values):
            labels = _format_labels(dict(key))
            lines.append(f"{self.name}{labels} {_format_value(values[key])}")
        return lines


@dataclass
class Counter(_Series):
    """A monotonically increasing count, optionally split by label set.

    Increments are finite and >= 0: one NaN or inf would stick in the
    rendered value for the rest of the run.
    """

    kind: ClassVar[str] = "counter"

    def inc(self, amount: float = 1.0, **labels: _LabelValue) -> None:
        if not 0.0 <= amount < _INF:
            raise ConfigurationError(
                f"counter {self.name} takes a finite increment >= 0 "
                f"(inc by {amount})"
            )
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount


@dataclass
class Gauge(_Series):
    """A value that goes up and down (instantaneous power, pool sizes)."""

    kind: ClassVar[str] = "gauge"

    def set(self, value: float, **labels: _LabelValue) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: _LabelValue) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount


class Histogram:
    """A fixed-bucket histogram with Prometheus cumulative semantics.

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket catches the overflow.  :meth:`quantile`
    estimates by linear interpolation inside the winning bucket — its
    error is therefore bounded by that bucket's width whenever the
    quantile lands in a finite bucket.  Observed values must be finite:
    a NaN would land in ``+Inf`` and make the sum NaN.
    """

    def __init__(self, name: str, help_text: str, buckets: Sequence[float]) -> None:
        if not buckets:
            raise ConfigurationError(f"histogram {name} needs at least one bucket")
        bounds = [float(b) for b in buckets]
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name} buckets must be strictly increasing"
            )
        self.name = name
        self.help_text = help_text
        self.bounds: tuple[float, ...] = tuple(bounds)
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        if not -_INF < value < _INF:
            raise ConfigurationError(
                f"histogram {self.name} takes finite values, got {value}"
            )
        self._sum += value
        self._count += 1
        # The first bound >= value; past the last bound, the +Inf slot.
        self._counts[bisect_left(self.bounds, value)] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative (upper bound, count) pairs, ending with +Inf."""
        cumulative = 0
        out: list[tuple[float, int]] = []
        for bound, count in zip(self.bounds, self._counts):
            cumulative += count
            out.append((bound, cumulative))
        out.append((math.inf, cumulative + self._counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) from the buckets.

        Uses the nearest-rank target ``ceil(q * count)`` so the estimate
        brackets the exact :func:`repro.util.percentile.percentile` of
        the same sample: the true value lies inside the winning bucket,
        and the interpolated estimate never leaves it.  Values beyond the
        last finite bound clamp to that bound (the +Inf bucket has no
        width to interpolate over).
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            raise ConfigurationError(
                f"histogram {self.name} is empty; no quantile to estimate"
            )
        target = max(1, math.ceil(q * self._count))
        cumulative = 0
        previous_bound = 0.0
        for bound, count in zip(self.bounds, self._counts):
            if count:
                if cumulative + count >= target:
                    fraction = (target - cumulative) / count
                    return previous_bound + fraction * (bound - previous_bound)
                cumulative += count
            previous_bound = bound
        return self.bounds[-1]

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {_escape_help(self.help_text)}",
            f"# TYPE {self.name} histogram",
        ]
        for bound, cumulative in self.bucket_counts():
            le = _format_value(bound)
            lines.append(f'{self.name}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f"{self.name}_sum {_format_value(self._sum)}")
        lines.append(f"{self.name}_count {self._count}")
        return lines


class MetricsRegistry:
    """A namespace of instruments with a Prometheus text exporter.

    Every instrument is created here, so this is where metric hygiene
    is enforced.  A new name must match ``^repro_[a-z][a-z0-9_]*$``.
    Re-requesting a name returns the existing instrument (so producers
    scattered across modules share counters without plumbing), but a
    kind mismatch — asking for a counter where a gauge lives — or a
    non-empty help text other than the registered one is a
    configuration error, never a silent aliasing of two series.  The
    registry cannot see that a name was computed: a name built from a
    label value creates one instrument per value, which the pinned
    Prometheus digests catch instead.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Union[Counter, Gauge, Histogram]] = {}

    # ------------------------------------------------------------------
    def _get(
        self, name: str, kind: type, help_text: str
    ) -> Union[Counter, Gauge, Histogram, None]:
        existing = self._instruments.get(name)
        if existing is None:
            if _NAME_RE.fullmatch(name) is None:
                raise ConfigurationError(
                    f"metric name {name!r} does not match {_NAME_RE.pattern}"
                )
            return None
        if not isinstance(existing, kind):
            raise ConfigurationError(
                f"metric {name!r} is a {type(existing).__name__}, "
                f"not a {kind.__name__}"
            )
        if help_text and help_text != existing.help_text:
            raise ConfigurationError(
                f"metric {name!r} is registered with help "
                f"{existing.help_text!r}, not {help_text!r}"
            )
        return existing

    def counter(self, name: str, help_text: str = "") -> Counter:
        existing = self._get(name, Counter, help_text)
        if existing is None:
            existing = Counter(name, help_text)
            self._instruments[name] = existing
        return existing

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        existing = self._get(name, Gauge, help_text)
        if existing is None:
            existing = Gauge(name, help_text)
            self._instruments[name] = existing
        return existing

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> Histogram:
        existing = self._get(name, Histogram, help_text)
        if existing is None:
            existing = Histogram(name, help_text, buckets)
            self._instruments[name] = existing
        return existing

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> Optional[Union[Counter, Gauge, Histogram]]:
        return self._instruments.get(name)

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: list[str] = []
        for name in sorted(self._instruments):
            lines.extend(self._instruments[name].render())
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self._instruments)} instruments)"
