"""Benchmark: Figure 11 — Sirius runtime behaviour under fluctuating load.

Shapes to reproduce:

* (a) frequency boosting never launches instances; power bounces between
  the QA and ASR instances as the bottleneck moves;
* (b) instance boosting accumulates clones until (almost) every core sits
  at the 1.2 GHz floor and no further clone can be funded — the lock-in;
* (c) PowerChief both launches clones and withdraws idle ones, and ends
  the run with the best latency of the three.
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import fig11, render_fig11

from benchmarks.conftest import run_figures_once, show


def test_fig11_runtime_behavior(benchmark):
    (result,) = run_figures_once(benchmark, fig11.figure(seed=3))
    show(render_fig11(result))

    # (a) Frequency boosting: no instance ever launched.
    assert result.launches("freq-boost") == 0
    assert result.withdrawals("freq-boost") == 0

    # (b) Instance boosting: clones accumulate, no withdraw, and the run
    # ends with nearly every core at the ladder floor.
    assert result.launches("inst-boost") >= 3
    assert result.withdrawals("inst-boost") == 0
    final = result.run_for("inst-boost").state_samples[-1]
    frequencies = [ghz for stage in final.stages for _, ghz in stage.frequencies]
    at_floor = sum(1 for ghz in frequencies if ghz == pytest.approx(1.2))
    assert at_floor >= len(frequencies) - 1
    assert len(frequencies) >= 5  # clones actually accumulated

    # (c) PowerChief: uses both mechanisms.
    assert result.launches("powerchief") >= 2
    assert result.withdrawals("powerchief") >= 1

    # PowerChief ends with the best (or equal-best) mean latency.
    chief = result.run_for("powerchief").latency.mean
    assert chief <= result.run_for("freq-boost").latency.mean
    assert chief <= result.run_for("inst-boost").latency.mean * 1.3
