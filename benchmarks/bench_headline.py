"""Benchmark: the abstract's headline numbers, end to end.

Runs Figures 10, 12, 13 and 14 and aggregates them into the four claims
of the paper's abstract.  The assertions pin the claims' *structure*:
order-of-magnitude latency improvements on both applications, and more
power saved than Pegasus on both QoS deployments.
"""

from __future__ import annotations

from repro.experiments.figures import fig10, fig12, fig13, fig14
from repro.experiments.headline import compute_headline, format_headline

from benchmarks.conftest import run_figures_once, show


def test_headline(benchmark):
    headline = compute_headline(
        *run_figures_once(
            benchmark,
            fig10.figure(duration_s=600.0, seeds=(3, 5)),
            fig12.figure(duration_s=600.0, seeds=(3, 5)),
            fig13.figure(duration_s=800.0, seed=3),
            fig14.figure(duration_s=200.0, seed=3),
        )
    )
    show(format_headline(headline))

    # Order-of-magnitude across-load improvement on both applications.
    assert headline.sirius_avg_improvement > 8.0
    assert headline.nlp_avg_improvement > 8.0
    assert headline.sirius_p99_improvement > 4.0
    assert headline.nlp_p99_improvement > 4.0
    # NLP's improvement exceeds Sirius's, as in the paper (32.4 > 20.3).
    assert headline.nlp_avg_improvement > headline.sirius_avg_improvement
    # QoS mode: PowerChief saves substantially, and more than Pegasus, on
    # both deployments.
    assert headline.sirius_power_saving > 0.15
    assert headline.websearch_power_saving > 0.25
    assert headline.sirius_power_saving > headline.sirius_pegasus_saving
    assert headline.websearch_power_saving > headline.websearch_pegasus_saving
