"""Figure 14: power saving under a latency QoS — Web Search.

The Table-3 Web Search deployment (1 aggregation + 10 scatter-gather
leaves at 2.4 GHz, QoS 250 ms) "demonstrate[s] the ability in handling
different stage organizations".  Paper summary: PowerChief saves 43%
power over the baseline versus Pegasus's 10%, because the leaf tier's
large latency slack can be traded per-instance (frequency de-boost and
leaf withdraw) while Pegasus's uniform control is pinned by its
instantaneous-latency bail-outs.
"""

from __future__ import annotations

from repro.scenario.config import TABLE3_WEBSEARCH
from repro.experiments.figures.common import Figure
from repro.experiments.figures.fig13 import (
    QosFigureResult,
    qos_figure,
    render_qos_figure,
)

__all__ = ["figure", "render_fig14", "WEBSEARCH_QOS_RATE_QPS"]

#: Arrival rate for the Web Search QoS runs: ~40% leaf utilisation,
#: matching the figure's baseline latency fraction of ~0.45.
WEBSEARCH_QOS_RATE_QPS = 8.0


def figure(
    duration_s: float = 200.0,
    seed: int = 3,
    rate_qps: float = WEBSEARCH_QOS_RATE_QPS,
) -> Figure:
    """The three QoS policies on the Table-3 Web Search deployment."""
    return qos_figure("Figure 14", TABLE3_WEBSEARCH, rate_qps, duration_s, seed)


def render_fig14(result: QosFigureResult) -> str:
    return render_qos_figure(result)
