"""Typed invariant-violation records emitted by the guard monitors.

A :class:`GuardViolation` is the unit the supervision machinery trades
in: monitors emit them, the :class:`~repro.guard.supervisor.
SupervisedController` counts them against its hysteresis window, and
each one is mirrored into the audit log (as a
:class:`~repro.obs.audit.GuardViolationEntry`) and the metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["GuardViolation", "GuardTransition"]


@dataclass(frozen=True)
class GuardViolation:
    """One invariant violated at one control tick.

    ``value`` is the observed quantity and ``limit`` the bound it
    crossed; monitors without a natural scalar pair (e.g. the NaN
    detector) put the offending reading in ``message`` and report a
    representative pair here.  ``severity`` (``"warning"`` or
    ``"critical"``) is descriptive: every violation counts the same
    against the degradation-ladder window, and the severity survives
    into the audit log for post-hoc triage.
    """

    time: float
    monitor: str
    severity: str
    message: str
    value: float
    limit: float


@dataclass(frozen=True)
class GuardTransition:
    """One degradation-ladder move (demotion or re-promotion)."""

    time: float
    from_mode: str
    to_mode: str
    reason: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "from_mode": self.from_mode,
            "to_mode": self.to_mode,
            "reason": self.reason,
        }
