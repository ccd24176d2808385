"""Tables 1 and 4 of the paper as renderable artefacts.

Table 1 lists the candidate latency metrics for bottleneck identification
(all implemented in :mod:`repro.core.metrics`); Table 4 is the capability
comparison between PowerChief and prior work.  Neither runs a scenario:
:func:`static_table` makes each a :class:`Figure` with no cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.metrics import MetricKind
from repro.experiments.figures.common import Figure
from repro.experiments.report import format_heading, format_table

__all__ = [
    "TABLE1_ROWS",
    "render_table1",
    "SystemCapabilities",
    "TABLE4_SYSTEMS",
    "render_table4",
    "static_table",
    "table1",
    "table4",
]


def static_table(render: Callable[[], str]) -> Figure:
    """A table that needs no runs, as a figure: no cells, a fixed render."""
    return Figure(cells=(), reduce=lambda results: None, render=lambda _: render())

#: Table 1: metric name, its calculation, and the implementing MetricKind.
TABLE1_ROWS: tuple[tuple[str, str, MetricKind], ...] = (
    ("Average queuing time", "q_i", MetricKind.AVG_QUEUING),
    ("Average serving time", "s_i", MetricKind.AVG_SERVING),
    ("Average processing delay", "q_i + s_i", MetricKind.AVG_PROCESSING),
    ("99th queuing time", "tq_i", MetricKind.P99_QUEUING),
    ("99th serving time", "ts_i", MetricKind.P99_SERVING),
    ("99th processing delay", "tq_i + ts_i", MetricKind.P99_PROCESSING),
)


def render_table1() -> str:
    """ASCII rendering of Table 1 plus the Equation-1 metric."""
    rows = [
        (name, calc, kind.value) for name, calc, kind in TABLE1_ROWS
    ]
    rows.append(
        ("PowerChief latency metric (Eq. 1)", "L_i * q_i + s_i", MetricKind.POWERCHIEF.value)
    )
    return (
        format_heading("Table 1: metrics available to identify bottleneck service")
        + "\n"
        + format_table(["metric", "calculation", "MetricKind"], rows)
    )


def table1() -> Figure:
    """Table 1 as an artefact."""
    return static_table(render_table1)


@dataclass(frozen=True)
class SystemCapabilities:
    """One column of Table 4."""

    system: str
    multi_stage_awareness: bool
    power_constraint: bool
    commodity_hardware: bool
    runtime_system: bool
    power_management: bool


#: Table 4: comparison between PowerChief and existing work.
TABLE4_SYSTEMS: tuple[SystemCapabilities, ...] = (
    SystemCapabilities("Pegasus", False, True, True, True, True),
    SystemCapabilities("Timetrader", True, False, True, True, True),
    SystemCapabilities("Kwiken", True, False, True, False, False),
    SystemCapabilities("Adrenaline", False, True, False, True, True),
    SystemCapabilities("Bubble-Flux", False, False, True, True, False),
    SystemCapabilities("Quasar", False, False, True, True, False),
    SystemCapabilities("PowerChief", True, True, True, True, True),
)


def render_table4() -> str:
    """ASCII rendering of Table 4."""

    def mark(flag: bool) -> str:
        return "yes" if flag else "-"

    rows = [
        (
            system.system,
            mark(system.multi_stage_awareness),
            mark(system.power_constraint),
            mark(system.commodity_hardware),
            mark(system.runtime_system),
            mark(system.power_management),
        )
        for system in TABLE4_SYSTEMS
    ]
    return (
        format_heading("Table 4: PowerChief versus existing work")
        + "\n"
        + format_table(
            [
                "system",
                "multi-stage",
                "power constraint",
                "commodity HW",
                "runtime system",
                "power mgmt",
            ],
            rows,
        )
    )


def table4() -> Figure:
    """Table 4 as an artefact."""
    return static_table(render_table4)
