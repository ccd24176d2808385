"""The core power model.

Per-core power cannot be measured on the paper's platform, so the authors
"use the power model proposed in [22] (Adrenaline) to determine the power
consumption of a core running at different frequencies" (Section 8.1).  We
do the same through an explicit model class.

:class:`CubicPowerModel` follows the standard CMOS approximation
``P(f) = P_static + c * f^3`` (dynamic power scales with ``f * V^2`` and
voltage tracks frequency).  It is calibrated so that:

* ``P(1.8 GHz) = 4.52 W`` — the Table-2 budget of 13.56 W is exactly three
  instances at the mid-ladder frequency, as the paper constructs it;
* ``P(1.2 GHz) = 1.69 W`` — eight instances at the ladder floor consume
  13.53 W, so a ninth does not fit: this reproduces the Figure-11(b)
  lock-in where instance boosting can no longer recycle enough power.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ClusterError, FrequencyError
from repro.cluster.frequency import FrequencyLadder
from repro.units import Watts

__all__ = [
    "CubicPowerModel",
    "DEFAULT_POWER_MODEL",
]


class CubicPowerModel:
    """Maps a core frequency to its draw: ``P(f) = static + coeff * f^3``.

    ``f`` is in GHz and ``P`` in watts.  Without ``dynamic_coeff`` the
    model is calibrated so that ``P(1.8 GHz) = 4.52 W`` (see module docs).
    """

    def __init__(self, static_watts: float = 0.5, dynamic_coeff: Optional[float] = None) -> None:
        if static_watts < 0.0:
            raise ClusterError(f"static_watts must be >= 0, got {static_watts}")
        if dynamic_coeff is None:
            # Calibrate so that P(1.8 GHz) == 4.52 W (see module docstring).
            dynamic_coeff = (4.52 - static_watts) / (1.8**3)
        if dynamic_coeff <= 0.0:
            raise ClusterError(f"dynamic_coeff must be > 0, got {dynamic_coeff}")
        self.static_watts = float(static_watts)
        self.dynamic_coeff = float(dynamic_coeff)

    def power(self, freq_ghz: float) -> Watts:
        """Power in watts of a core running at ``freq_ghz`` (GHz)."""
        if freq_ghz <= 0.0:
            raise FrequencyError(f"frequency must be > 0 GHz, got {freq_ghz}")
        return Watts(self.static_watts + self.dynamic_coeff * freq_ghz**3)

    # ------------------------------------------------------------------
    # Ladder-aware helpers
    # ------------------------------------------------------------------
    def power_of_level(self, ladder: FrequencyLadder, level: int) -> Watts:
        """Power at a ladder level."""
        return self.power(ladder.frequency_of(level))

    def max_level_within(
        self, ladder: FrequencyLadder, watts: float
    ) -> Optional[int]:
        """Highest ladder level whose power is <= ``watts``.

        Returns ``None`` when even the floor level does not fit — the
        situation that forces Algorithm 1 to fall back to frequency
        boosting with whatever power is available.
        """
        best: Optional[int] = None
        for level in range(ladder.n_levels):
            if self.power_of_level(ladder, level) <= watts + 1e-12:
                best = level
        return best

    def recyclable(self, ladder: FrequencyLadder, level: int) -> Watts:
        """Watts freed by dropping a core from ``level`` to the floor."""
        return Watts(
            self.power_of_level(ladder, level)
            - self.power_of_level(ladder, ladder.min_level)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CubicPowerModel(static={self.static_watts:.3f} W, "
            f"coeff={self.dynamic_coeff:.5f} W/GHz^3)"
        )


#: The calibrated model used throughout the reproduction (see module docs).
DEFAULT_POWER_MODEL = CubicPowerModel()
