"""Deterministic random-number streams for simulation components.

Every stochastic component (load generator, per-stage demand sampling, ...)
draws from its own named stream derived from a single master seed.  This
keeps experiments reproducible *and* decoupled: adding draws to one
component does not perturb the sequence seen by another, so an ablation
that changes the controller leaves the workload byte-identical.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Iterator

from repro.units import exactly

__all__ = ["RandomStreams", "SeededStream"]


class SeededStream(random.Random):
    """A ``random.Random`` that remembers the name it was derived from."""

    def __init__(self, seed: int, name: str) -> None:
        super().__init__(seed)
        self.name = name
        self.derived_seed = seed

    # Convenience distributions used across the workload models -------
    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean (mean > 0)."""
        if mean <= 0.0:
            raise ValueError(f"exponential mean must be > 0, got {mean}")
        return self.expovariate(1.0 / mean)

    def lognormal_mean(self, mean: float, sigma: float) -> float:
        """Log-normal variate parameterised by its *arithmetic* mean.

        ``sigma`` is the shape parameter of the underlying normal; ``mu``
        is solved so that ``E[X] == mean``, which makes demand profiles easy
        to read ("mean serving demand is 0.8 s").  This per-draw form is
        the reference :class:`~repro.service.demand.LogNormalDemand`'s
        draws are tested against; that class solves ``mu`` once.
        """
        if mean <= 0.0:
            raise ValueError(f"lognormal mean must be > 0, got {mean}")
        if sigma < 0.0:
            raise ValueError(f"lognormal sigma must be >= 0, got {sigma}")
        if exactly(sigma, 0.0):
            return mean
        mu = math.log(mean) - 0.5 * sigma * sigma
        return self.lognormvariate(mu, sigma)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededStream(name={self.name!r}, seed={self.derived_seed})"


class RandomStreams:
    """A factory of independent, reproducible random streams.

    >>> streams = RandomStreams(master_seed=42)
    >>> a = streams.stream("arrivals")
    >>> b = streams.stream("demand/asr")
    >>> a is streams.stream("arrivals")   # streams are cached by name
    True
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, SeededStream] = {}

    def stream(self, name: str) -> SeededStream:
        """Return the stream for ``name``, creating it on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        stream = SeededStream(self._derive_seed(name), name)
        self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "RandomStreams":
        """A child factory whose streams are independent of this one's."""
        return RandomStreams(self._derive_seed(f"fork/{name}"))

    def names(self) -> Iterator[str]:
        """Names of the streams created so far."""
        return iter(sorted(self._streams))

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(master_seed={self.master_seed}, streams={len(self._streams)})"
