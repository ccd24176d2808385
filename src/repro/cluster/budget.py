"""Power budget accounting and enforcement.

The power constraint is the central invariant of the paper: "dynamically
reallocates the constrained power budget across service stages" while
never exceeding it.  :class:`PowerBudget` wraps a :class:`Machine` with a
hard watt ceiling; controllers consult :meth:`available` before boosting
and can assert the invariant after every reallocation.
"""

from __future__ import annotations

import math
from typing import Optional, Protocol

from repro.errors import ClusterError, PowerBudgetExceeded
from repro.cluster.machine import Machine
from repro.units import EPSILON_WATTS, Watts

__all__ = ["PowerBudget", "PowerScope"]

#: Slack used in comparisons so float noise never trips the hard invariant.
_EPSILON_WATTS = EPSILON_WATTS


class PowerScope(Protocol):
    """Anything whose draw can be budgeted (a machine, or one application)."""

    def total_power(self) -> Watts: ...


class PowerBudget:
    """A hard cap on a power scope's draw.

    By default the scope is the whole machine.  Passing an
    :class:`~repro.service.application.Application` as ``scope`` gives
    that application its own budget — the paper's collocation model
    (Section 8.5: "PowerChief manages dynamic power allocation at per
    application basis where each application has its own power budget"),
    where several applications share a machine but each controller only
    spends its own allocation.
    """

    def __init__(
        self,
        machine: Machine,
        budget_watts: float,
        scope: Optional[PowerScope] = None,
    ) -> None:
        if not math.isfinite(budget_watts) or budget_watts <= 0.0:
            raise ClusterError(
                f"budget must be a finite number > 0 W, got {budget_watts}"
            )
        self.machine = machine
        self.budget_watts = float(budget_watts)
        self._scope: PowerScope = scope if scope is not None else machine
        self._reserved_watts = 0.0

    # ------------------------------------------------------------------
    def draw(self) -> Watts:
        """Current draw of the budgeted scope in watts."""
        return self._scope.total_power()

    @property
    def reserved_watts(self) -> Watts:
        """Headroom earmarked (not yet drawn) by :meth:`reserve`."""
        return Watts(self._reserved_watts)

    def reserve(self, watts: float) -> None:
        """Earmark headroom so :meth:`fits` stops offering it to callers.

        The health monitor reserves a crashed instance's wattage the
        instant the crash is seen — otherwise the controller's next
        adjustment spends the freed power on boosts and the replacement
        can never be launched.  A reservation only shrinks
        :meth:`available`; the hard draw invariant is untouched.
        """
        if watts < 0.0:
            raise ClusterError(f"cannot reserve {watts} W")
        self._reserved_watts += watts

    def release(self, watts: float) -> None:
        """Return previously reserved headroom to the pool."""
        if watts < 0.0:
            raise ClusterError(f"cannot release {watts} W")
        if watts > self._reserved_watts + _EPSILON_WATTS:
            raise ClusterError(
                f"releasing {watts} W but only "
                f"{self._reserved_watts} W is reserved"
            )
        self._reserved_watts = max(0.0, self._reserved_watts - watts)

    def available(self) -> Watts:
        """Unallocated, unreserved headroom in watts (never negative)."""
        return Watts(
            max(0.0, self.budget_watts - self.draw() - self._reserved_watts)
        )

    def utilization(self) -> float:
        """Fraction of the budget currently drawn."""
        return self.draw() / self.budget_watts

    def fits(self, extra_watts: float) -> bool:
        """Whether an additional draw of ``extra_watts`` stays within budget."""
        return extra_watts <= self.available() + _EPSILON_WATTS

    def check(self, extra_watts: float) -> None:
        """Raise :class:`PowerBudgetExceeded` unless ``extra_watts`` fits."""
        if not self.fits(extra_watts):
            raise PowerBudgetExceeded(extra_watts, self.available())

    def assert_within(self, subject: str = "the machine") -> None:
        """Assert the hard invariant: total draw never exceeds the budget.

        Controllers call this after applying a reallocation plan; a failure
        is a bug in the controller, not a recoverable condition.  The
        message names ``subject`` as what draws, the draw, the budget and
        the excess.
        """
        draw = self.draw()
        if draw > self.budget_watts + _EPSILON_WATTS:
            excess = draw - self.budget_watts
            raise PowerBudgetExceeded(
                excess,
                0.0,
                f"{subject} draws {draw:.3f} W against the "
                f"{self.budget_watts:.3f} W budget, {excess:.3f} W over",
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PowerBudget({self.draw():.2f}/{self.budget_watts:.2f} W, "
            f"{self.available():.2f} W free)"
        )
