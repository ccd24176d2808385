"""Per-figure experiment definitions.

One module per table/figure of the paper's evaluation; each exposes a
``figure(...)`` function returning a :class:`Figure` — the scenario cells
the figure needs, a reducer building its structured result from their
results, and a ``render_*`` function producing the ASCII analog of the
figure.  :func:`repro.experiments.campaign.run_figures` runs them.
"""

from repro.experiments.figures.common import (
    DEFAULT_SEEDS,
    Figure,
    ImprovementCell,
    improvement_cells,
    reduce_improvement,
)
from repro.experiments.figures.fig02 import Fig02Bar, Fig02Result, render_fig02
from repro.experiments.figures.fig04 import Fig04Result, render_fig04
from repro.experiments.figures.fig10 import (
    ImprovementFigureResult,
    render_improvement_figure,
)
from repro.experiments.figures.fig11 import Fig11Result, render_fig11
from repro.experiments.figures.fig12 import render_fig12
from repro.experiments.figures.fig13 import (
    QosFigureResult,
    render_fig13,
    render_qos_figure,
)
from repro.experiments.figures.fig14 import render_fig14
from repro.experiments.figures.tables import (
    TABLE1_ROWS,
    TABLE4_SYSTEMS,
    SystemCapabilities,
    render_table1,
    render_table4,
    static_table,
)

__all__ = [
    "DEFAULT_SEEDS",
    "Figure",
    "ImprovementCell",
    "improvement_cells",
    "reduce_improvement",
    "Fig02Bar",
    "Fig02Result",
    "render_fig02",
    "Fig04Result",
    "render_fig04",
    "ImprovementFigureResult",
    "render_improvement_figure",
    "Fig11Result",
    "render_fig11",
    "render_fig12",
    "QosFigureResult",
    "render_fig13",
    "render_qos_figure",
    "render_fig14",
    "TABLE1_ROWS",
    "TABLE4_SYSTEMS",
    "SystemCapabilities",
    "render_table1",
    "render_table4",
    "static_table",
]
