"""Power telemetry: sampled power timelines for the QoS experiments.

Figures 13 and 14 of the paper plot "fraction of peak power" over the
experiment timeline.  :class:`PowerTelemetry` samples the machine's total
draw on a fixed interval and exposes the series plus summary statistics
(average, peak, energy) that the benchmark harness renders.

Each :class:`PowerSample` also carries the per-core DVFS level
distribution at the sampling instant — ``level_counts`` maps ladder level
to the number of active cores at it — which is what Figure 11(c)'s
many-instances-near-the-floor convergence looks like from the power
substrate's side.  When built with a
:class:`~repro.obs.metrics.MetricsRegistry`, the sampler routes its
summary statistics through the registry (gauges for the latest and peak
draw, a counter for samples, a histogram of the sampled draw, and a
per-level active-core gauge) instead of keeping bespoke aggregate fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ClusterError
from repro.cluster.machine import Machine
from repro.obs.metrics import DEFAULT_POWER_BUCKETS_W, MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.rng import SeededStream
from repro.units import Joules, SimTime, Watts

__all__ = ["PowerSample", "PowerTelemetry"]


@dataclass(frozen=True)
class PowerSample:
    """One point on the power timeline.

    ``level_counts`` is the machine's DVFS state at the instant: sorted
    ``(ladder level, active core count)`` pairs, empty when no core is
    active.
    """

    time: SimTime
    watts: Watts
    level_counts: tuple[tuple[int, int], ...] = field(default=())

    @property
    def active_cores(self) -> int:
        return sum(count for _, count in self.level_counts)


class PowerTelemetry:
    """Samples total machine power on a fixed simulated interval."""

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        sample_interval_s: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if sample_interval_s <= 0.0:
            raise ClusterError(
                f"sample interval must be > 0, got {sample_interval_s}"
            )
        self.sim = sim
        self.machine = machine
        self.sample_interval_s = float(sample_interval_s)
        self.registry = registry
        self.samples: list[PowerSample] = []
        self.samples_dropped = 0
        self._dropout_until = 0.0
        self._noise_until = 0.0
        self._noise_fraction = 0.0
        self._noise_stream: Optional[SeededStream] = None
        self._sample_listeners: list[Callable[[PowerSample], None]] = []
        self._process = PeriodicProcess(
            sim,
            sample_interval_s,
            self._sample,
            start_delay=0.0,
            name="power-telemetry",
        )

    def start(self) -> None:
        """Begin sampling (takes an immediate sample at the current time)."""
        self._process.start()

    def stop(self) -> None:
        """Stop sampling; the collected series stays available."""
        self._process.stop()

    def add_sample_listener(
        self, listener: Callable[[PowerSample], None]
    ) -> None:
        """Invoke ``listener(sample)`` after each sample lands.

        Dropped samples (telemetry dropout) never reach listeners — the
        energy attributor sees exactly the series :meth:`energy_joules`
        integrates.  Costs one truthiness check per sample when nobody
        listens.
        """
        self._sample_listeners.append(listener)

    def remove_sample_listener(
        self, listener: Callable[[PowerSample], None]
    ) -> None:
        self._sample_listeners.remove(listener)

    # ------------------------------------------------------------------
    # Fault surface
    # ------------------------------------------------------------------
    def inject_dropout(self, until_s: float) -> None:
        """Drop every sample until the given simulated time (RAPL dark).

        Dropped samples are counted, never silently elided: the power
        series simply has a hole, and :meth:`seconds_since_last_sample`
        grows until sampling resumes — which is what the controller's
        telemetry-dark guard watches.
        """
        self._dropout_until = max(self._dropout_until, float(until_s))

    def inject_noise(
        self, until_s: float, fraction: float, stream: SeededStream
    ) -> None:
        """Perturb sampled watts by ``±fraction`` (uniform) until ``until_s``."""
        if fraction < 0.0:
            raise ClusterError(f"noise fraction must be >= 0, got {fraction}")
        self._noise_until = max(self._noise_until, float(until_s))
        self._noise_fraction = float(fraction)
        self._noise_stream = stream

    def last_known_good(self) -> Optional[PowerSample]:
        """The most recent sample, or ``None`` before the first one.

        During a dropout window this is the conservative stand-in the
        controller falls back to instead of assuming zero draw.
        """
        if not self.samples:
            return None
        return self.samples[-1]

    def seconds_since_last_sample(self, now: float) -> Optional[float]:
        """Age of the freshest sample (``None`` when nothing ever arrived)."""
        if not self.samples:
            return None
        return now - self.samples[-1].time

    def _sample(self, now: float) -> None:
        if now < self._dropout_until:
            self.samples_dropped += 1
            if self.registry is not None:
                self.registry.counter(
                    "repro_power_samples_dropped_total",
                    "Power samples lost to injected telemetry dropout",
                ).inc()
            return
        watts = self.machine.total_power()
        if now < self._noise_until and self._noise_stream is not None:
            perturbed = watts * (
                1.0 + self._noise_fraction * self._noise_stream.uniform(-1.0, 1.0)
            )
            watts = Watts(max(0.0, perturbed))
        now = SimTime(now)
        # The machine maintains its per-level population incrementally;
        # sampling must not rescan the core pool on every tick.
        level_counts = self.machine.level_counts()
        self.samples.append(PowerSample(now, watts, level_counts))
        if self.registry is not None:
            self.registry.counter(
                "repro_power_samples_total", "Power telemetry samples taken"
            ).inc()
            gauge = self.registry.gauge(
                "repro_power_watts", "Machine draw at the latest sample"
            )
            gauge.set(watts)
            peak = self.registry.gauge(
                "repro_power_peak_watts", "Largest sampled machine draw"
            )
            if watts > peak.value():
                peak.set(watts)
            self.registry.histogram(
                "repro_power_sample_watts",
                "Distribution of sampled machine draw",
                buckets=DEFAULT_POWER_BUCKETS_W,
            ).observe(watts)
            level_gauge = self.registry.gauge(
                "repro_cores_at_level", "Active cores per DVFS ladder level"
            )
            by_level = dict(level_counts)
            for level in range(
                self.machine.ladder.min_level, self.machine.ladder.max_level + 1
            ):
                level_gauge.set(by_level.get(level, 0), level=level)
        if self._sample_listeners:
            sample = self.samples[-1]
            for listener in tuple(self._sample_listeners):
                listener(sample)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def average_power(self, since: float = 0.0) -> Optional[Watts]:
        """Mean of the sampled draw from ``since`` onward.

        Returns ``None`` when the window holds no samples — under
        telemetry dropout a window can be empty, and a fabricated 0.0 W
        would read as "the machine is idle, spend freely", the most
        dangerous possible misreading.  Callers must branch explicitly.
        """
        values = [s.watts for s in self.samples if s.time >= since]
        if not values:
            return None
        return Watts(sum(values) / len(values))

    def peak_power(self) -> Watts:
        """Maximum sampled draw (0 if no samples)."""
        if not self.samples:
            return Watts(0.0)
        return Watts(max(sample.watts for sample in self.samples))

    def energy_joules(self) -> Joules:
        """Trapezoidal integral of the sampled power series."""
        if len(self.samples) < 2:
            return Joules(0.0)
        total = 0.0
        for before, after in zip(self.samples, self.samples[1:]):
            total += 0.5 * (before.watts + after.watts) * (after.time - before.time)
        return Joules(total)

    def fractions_of(self, reference_watts: float) -> list[tuple[float, float]]:
        """The series normalised to a reference draw (e.g. peak power)."""
        if reference_watts <= 0.0:
            raise ClusterError(
                f"reference power must be > 0, got {reference_watts}"
            )
        return [(s.time, s.watts / reference_watts) for s in self.samples]
