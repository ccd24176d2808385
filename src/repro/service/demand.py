"""Demand distributions: how much work a query brings to a stage.

Demands are expressed in seconds of execution at the *slowest* ladder
frequency — the same normalisation the paper uses for its offline
profiles ("execution times normalized to the service running at the
slowest frequency", Section 5.3).  Actual serving time is the demand
scaled by the instance's speedup curve at its current frequency.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.errors import ConfigurationError
from repro.sim.rng import SeededStream
from repro.units import exactly

__all__ = [
    "DemandDistribution",
    "DeterministicDemand",
    "ExponentialDemand",
    "LogNormalDemand",
]


class DemandDistribution(ABC):
    """Distribution of per-query work for one service."""

    @abstractmethod
    def sample(self, rng: SeededStream) -> float:
        """Draw one demand, in seconds at the slowest frequency."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Expected demand (used to size load levels against capacity)."""

    @property
    @abstractmethod
    def cv2(self) -> float:
        """Squared coefficient of variation (drives M/G/1 waiting times)."""


class DeterministicDemand(DemandDistribution):
    """Every query brings exactly the same work (useful in tests)."""

    def __init__(self, seconds: float) -> None:
        if seconds <= 0.0:
            raise ConfigurationError(f"demand must be > 0, got {seconds}")
        self._seconds = float(seconds)

    def sample(self, rng: SeededStream) -> float:
        return self._seconds

    @property
    def mean(self) -> float:
        return self._seconds

    @property
    def cv2(self) -> float:
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeterministicDemand({self._seconds}s)"


class ExponentialDemand(DemandDistribution):
    """Memoryless demand — the classic M/M/1-style serving assumption."""

    def __init__(self, mean_seconds: float) -> None:
        if mean_seconds <= 0.0:
            raise ConfigurationError(f"mean demand must be > 0, got {mean_seconds}")
        self._mean = float(mean_seconds)

    def sample(self, rng: SeededStream) -> float:
        return rng.exponential(self._mean)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def cv2(self) -> float:
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExponentialDemand(mean={self._mean}s)"


class LogNormalDemand(DemandDistribution):
    """Right-skewed demand with occasional heavy queries.

    Log-normal serving demands are the standard model for user-facing
    query work (most queries are cheap, a tail is expensive) and are what
    make the 99th-percentile latency interesting; ``sigma`` controls the
    heaviness of the tail.
    """

    def __init__(self, mean_seconds: float, sigma: float = 0.5) -> None:
        if mean_seconds <= 0.0:
            raise ConfigurationError(f"mean demand must be > 0, got {mean_seconds}")
        if sigma < 0.0:
            raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
        self._mean = float(mean_seconds)
        self._sigma = float(sigma)
        # Solved once, with the expression and operand order
        # :meth:`SeededStream.lognormal_mean` uses per draw, so every
        # sample is the float that reference would return.
        self._mu = math.log(self._mean) - 0.5 * self._sigma * self._sigma
        self._degenerate = exactly(self._sigma, 0.0)

    def sample(self, rng: SeededStream) -> float:
        if self._degenerate:
            return self._mean
        return rng.lognormvariate(self._mu, self._sigma)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def sigma(self) -> float:
        return self._sigma

    @property
    def cv2(self) -> float:
        return math.exp(self._sigma * self._sigma) - 1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LogNormalDemand(mean={self._mean}s, sigma={self._sigma})"
