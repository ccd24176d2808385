"""Exception hierarchy for the PowerChief reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "SimulationError",
    "SchedulingError",
    "ClusterError",
    "FrequencyError",
    "PowerBudgetExceeded",
    "NoCoreAvailable",
    "ServiceError",
    "StageError",
    "InstanceStateError",
    "ConfigurationError",
    "ExperimentError",
    "ProtocolError",
    "ServeError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation engine."""


class SchedulingError(SimulationError):
    """Raised when an event is scheduled or cancelled incorrectly.

    Typical causes are scheduling an event in the simulated past or
    cancelling an event that has already fired.
    """


class ClusterError(ReproError):
    """Base class for errors in the CMP cluster substrate."""


class FrequencyError(ClusterError):
    """Raised when a frequency is outside the DVFS ladder of the machine."""


class PowerBudgetExceeded(ClusterError):
    """Raised when an action would push total draw above the power budget,
    or when the draw is found above it (``message`` then says by how much;
    ``requested`` is the excess and ``available`` 0)."""

    def __init__(
        self, requested: float, available: float, message: Optional[str] = None
    ) -> None:
        super().__init__(
            message
            or f"requested {requested:.3f} W but only {available:.3f} W "
            f"of the budget is available"
        )
        self.requested = requested
        self.available = available


class NoCoreAvailable(ClusterError):
    """Raised when an instance launch cannot find a free physical core."""


class ServiceError(ReproError):
    """Base class for errors in the multi-stage service substrate."""


class StageError(ServiceError):
    """Raised for invalid stage operations (e.g. removing the last instance)."""


class InstanceStateError(ServiceError):
    """Raised when a service instance is driven through an illegal transition."""


class ConfigurationError(ReproError):
    """Raised when an experiment or controller configuration is invalid."""


class ExperimentError(ReproError):
    """Raised when an experiment cannot be run or produced no usable data."""


class ProtocolError(ReproError):
    """Raised when a ``reprod`` control-socket message is malformed."""


class ServeError(ReproError):
    """Raised when a ``reprod`` daemon command cannot be honoured."""
