"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper's evaluation:
it runs the experiment once inside pytest-benchmark (rounds=1 — these are
full simulation campaigns, not microbenchmarks), prints the ASCII analog
of the figure, and asserts the paper's qualitative shape so a regression
that flips a conclusion fails the bench rather than silently printing
different numbers.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os


def engine_workers(n_cells: int) -> int:
    """Worker count for the cell-engine fan-outs in these benchmarks.

    ``REPRO_BENCH_WORKERS`` overrides; otherwise one worker per cell up
    to the machine's core count.  Results are seed-deterministic either
    way — the worker count only moves wall clock.
    """
    override = os.environ.get("REPRO_BENCH_WORKERS")
    if override:
        return max(1, int(override))
    return max(1, min(n_cells, os.cpu_count() or 1))


def run_once(benchmark, func, *args, **kwargs):
    """Benchmark ``func`` with a single round/iteration and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_figures_once(benchmark, *figures):
    """Benchmark one pass of the figure runner; each figure's result."""
    from repro.experiments.campaign import run_figures

    results, _ = run_once(benchmark, run_figures, list(figures))
    return results


def show(text: str) -> None:
    """Print a rendered figure with surrounding blank lines."""
    print()
    print(text)
    print()
