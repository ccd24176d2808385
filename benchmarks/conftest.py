"""Shared helpers for the ablation, oracle, sweep and table benches.

Each bench runs one ablation, sweep or table experiment once inside
pytest-benchmark (rounds=1: these are simulation campaigns, not
microbenchmarks), prints what it measured, and asserts the conclusion
it reproduces.  The paper's figure claims are tier-1 tests
(``tests/integration/test_paper_claims.py``).

Run with::

    PYTHONPATH=src:. python -m pytest benchmarks --ignore=benchmarks/perf --benchmark-disable -q
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


def show(text: str) -> None:
    """Print a rendered figure with surrounding blank lines."""
    print()
    print(text)
    print()
