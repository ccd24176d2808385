"""Service profiles: demand plus frequency-speedup behaviour.

PowerChief "use[s] offline profiling to acquire the latency reduction of
each service at different frequencies, which is then used during runtime
to estimate the latency improvement with frequency boosting"
(Section 5.2).  A :class:`ServiceProfile` is that offline profile: the
demand distribution of the service and its :class:`PowerLawSpeedup`,
i.e. normalized execution time as a function of core frequency.

Normalisation follows the paper (Section 5.3): execution time at the
slowest ladder frequency is 1.0; faster frequencies give values < 1.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, FrequencyError
from repro.service.demand import DemandDistribution

__all__ = [
    "PowerLawSpeedup",
    "ServiceProfile",
]


class PowerLawSpeedup:
    """Normalized execution time ``time(f) = (f_min / f) ** beta``.

    ``beta = 1`` is a perfectly frequency-scalable (compute-bound) service;
    ``beta < 1`` models memory-bound services that benefit less from
    higher clocks — the stage-sensitivity difference that motivates the
    adaptive boosting engine.
    """

    def __init__(self, f_min_ghz: float, beta: float = 1.0) -> None:
        if f_min_ghz <= 0.0:
            raise ConfigurationError(f"f_min must be > 0, got {f_min_ghz}")
        if not 0.0 <= beta <= 1.5:
            raise ConfigurationError(
                f"beta should be in [0, 1.5] for a physical service, got {beta}"
            )
        self.f_min_ghz = float(f_min_ghz)
        self.beta = float(beta)

    def normalized_time(self, freq_ghz: float) -> float:
        """Execution-time ratio relative to the slowest frequency (<= 1)."""
        if freq_ghz < self.f_min_ghz - 1e-9:
            raise FrequencyError(
                f"{freq_ghz} GHz is below the profile floor {self.f_min_ghz} GHz"
            )
        return (self.f_min_ghz / freq_ghz) ** self.beta

    def speedup(self, freq_ghz: float) -> float:
        """Speedup factor relative to the slowest frequency (>= 1)."""
        return 1.0 / self.normalized_time(freq_ghz)

    def alpha(self, freq_low_ghz: float, freq_high_ghz: float) -> float:
        """The paper's ``alpha_lh``: execution-time ratio between two levels.

        ``alpha`` multiplies the current delay in Equation 3; boosting from
        ``freq_low`` to ``freq_high`` scales delays by
        ``normalized_time(high) / normalized_time(low)``.
        """
        return self.normalized_time(freq_high_ghz) / self.normalized_time(
            freq_low_ghz
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PowerLawSpeedup(f_min={self.f_min_ghz} GHz, beta={self.beta})"


class ServiceProfile:
    """The offline profile of one service (stage type)."""

    def __init__(
        self,
        name: str,
        demand: DemandDistribution,
        speedup: PowerLawSpeedup,
    ) -> None:
        if not name:
            raise ConfigurationError("service profile needs a non-empty name")
        self.name = name
        self.demand = demand
        self.speedup = speedup

    def serving_time(self, demand_seconds: float, freq_ghz: float) -> float:
        """Wall-clock serving time of ``demand_seconds`` of work at ``freq_ghz``."""
        if demand_seconds < 0.0:
            raise ConfigurationError(f"demand must be >= 0, got {demand_seconds}")
        return demand_seconds * self.speedup.normalized_time(freq_ghz)

    def mean_serving_time(self, freq_ghz: float) -> float:
        """Expected serving time at a frequency (for capacity planning)."""
        return self.serving_time(self.demand.mean, freq_ghz)

    def service_rate(self, freq_ghz: float) -> float:
        """Expected queries/second one instance sustains at ``freq_ghz``."""
        return 1.0 / self.mean_serving_time(freq_ghz)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServiceProfile({self.name!r}, {self.demand!r}, {self.speedup!r})"
