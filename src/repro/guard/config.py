"""Guard configuration: the degradation ladder and its hysteresis knobs.

Kept import-light (only :mod:`repro.errors`) so :mod:`repro.scenario.spec`
can validate a ``guard`` block without pulling in the controller stack.
Every field is a JSON scalar, mirroring :class:`~repro.core.controller.
ControllerConfig`'s spec round-trip contract.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Any, Mapping, Tuple

from repro.errors import ConfigurationError

__all__ = ["GuardConfig", "RUNG_NAMES", "guard_to_spec", "guard_from_spec"]

#: Fallback rungs the ladder may be built from, in no particular order.
#: The primary policy is always rung zero and is not named here.
RUNG_NAMES = ("conserve", "safe")

_COUNT_FIELDS = ("demote_after", "osc_max_flips", "storm_ticks")

_REAL_FIELDS = (
    "violation_window_s",
    "probation_s",
    "osc_window_s",
    "burn_threshold",
    "conserve_headroom",
)


@dataclass(frozen=True)
class GuardConfig:
    """Knobs for the supervised-controller degradation ladder.

    ``ladder`` is a comma-separated list of fallback rungs walked on
    repeated violations, after the wrapped policy itself; the default
    is the full PowerChief → conserve → safe chain from the issue.
    Demotion fires when ``demote_after`` violations land within
    ``violation_window_s``; promotion retries one rung after
    ``probation_s`` of violation-free operation (measured from the
    later of the last violation and the last transition — the
    hysteresis that stops flapping).
    """

    ladder: str = "conserve,safe"
    demote_after: int = 2
    violation_window_s: float = 75.0
    probation_s: float = 150.0
    osc_window_s: float = 150.0
    osc_max_flips: int = 4
    burn_threshold: float = 2.0
    storm_ticks: int = 3
    conserve_headroom: float = 0.9

    def __post_init__(self) -> None:
        # Before the ranges: NaN slips past every ordered comparison and
        # infinity past the bounds, and a count must be a whole number.
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value!r}"
                )
        rungs = self.rungs()
        if not rungs:
            raise ConfigurationError("guard ladder must name at least one rung")
        for rung in rungs:
            if rung not in RUNG_NAMES:
                raise ConfigurationError(
                    f"unknown guard ladder rung {rung!r}; "
                    f"valid rungs: {', '.join(RUNG_NAMES)}"
                )
        if len(set(rungs)) != len(rungs):
            raise ConfigurationError(
                f"guard ladder repeats a rung: {self.ladder!r}"
            )
        if self.demote_after < 1:
            raise ConfigurationError(
                f"demote_after must be >= 1, got {self.demote_after}"
            )
        for name in ("violation_window_s", "probation_s", "osc_window_s"):
            value = getattr(self, name)
            if value <= 0.0:
                raise ConfigurationError(f"{name} must be > 0, got {value}")
        if self.osc_max_flips < 1:
            raise ConfigurationError(
                f"osc_max_flips must be >= 1, got {self.osc_max_flips}"
            )
        if self.burn_threshold <= 0.0:
            raise ConfigurationError(
                f"burn_threshold must be > 0, got {self.burn_threshold}"
            )
        if self.storm_ticks < 1:
            raise ConfigurationError(
                f"storm_ticks must be >= 1, got {self.storm_ticks}"
            )
        if not 0.0 < self.conserve_headroom <= 1.0:
            raise ConfigurationError(
                f"conserve_headroom must be in (0, 1], got "
                f"{self.conserve_headroom}"
            )

    def rungs(self) -> tuple[str, ...]:
        """The fallback rung names, in demotion order."""
        return tuple(
            part.strip() for part in self.ladder.split(",") if part.strip()
        )


_GUARD_FIELDS = frozenset(f.name for f in fields(GuardConfig))


def guard_to_spec(config: GuardConfig) -> Tuple[Tuple[str, Any], ...]:
    """Canonical sorted-items form for embedding in a scenario spec."""
    return tuple(sorted(asdict(config).items()))


def guard_from_spec(
    items: Tuple[Tuple[str, Any], ...] | Mapping[str, Any]
) -> GuardConfig:
    """Rebuild a :class:`GuardConfig` from its spec tuple (or a mapping)."""
    data = dict(items)
    for key in data:
        if key not in _GUARD_FIELDS:
            raise ConfigurationError(f"unknown guard option {key!r}")
    return GuardConfig(**data)
