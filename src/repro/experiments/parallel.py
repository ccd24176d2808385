"""Parallel experiment execution with content-addressed result caching.

Every cell of the evaluation — one scenario run, or one rendered
artefact — is an independent, deterministically seeded computation, so
a campaign is an embarrassingly parallel fan-out.  This module is the
substrate the campaign driver, the headline aggregator and the sweep
benchmarks execute on:

* a cell is either a :class:`~repro.scenario.spec.ScenarioSpec` (a
  frozen, hashable, picklable run description) or the plain name of a
  campaign artefact (a default-registry figure or table);
* :func:`spec_digest` is a cell's cache key — a scenario's own
  :meth:`~repro.scenario.spec.ScenarioSpec.digest`, so a campaign cell
  and ``repro run --scenario`` share cache entries;
  :class:`ResultCache` memoizes completed cells on disk under that
  digest, so re-running a campaign only recomputes changed cells.
* :func:`run_cells` fans cells out across worker processes via
  :class:`concurrent.futures.ProcessPoolExecutor` with a per-cell
  timeout, one in-process retry for cells whose worker crashed or timed
  out, and graceful degradation to serial execution when ``max_workers``
  is 1, the pool cannot be created, or the pool dies mid-campaign.

Results flow through the JSON exporters in both the serial and parallel
paths, so a cell's payload is byte-identical however it was executed —
``--workers 4`` and ``--workers 1`` produce the same campaign.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

from repro.errors import ConfigurationError, ExperimentError
from repro.obs.metrics import MetricsRegistry
from repro.experiments.export import (
    scenario_payload,
    scenario_result_from_payload,
)
from repro.experiments.report import format_heading, format_table
from repro.scenario.results import QosRunResult, RunResult, ShardedRunResult
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "CACHE_VERSION",
    "Cell",
    "CellOutcome",
    "EngineReport",
    "ResultCache",
    "spec_digest",
    "execute_cell",
    "run_cells",
]

#: Bumped whenever the payload layout or cell semantics change; part of
#: every cache entry, so stale entries can never be mistaken for fresh.
#: Version 2: scenario cells digest through the scenario layer's
#: canonical :meth:`~repro.scenario.spec.ScenarioSpec.digest`.
CACHE_VERSION = 2

#: One unit of campaign work: a scenario run, or an artefact's name.
Cell = Union[ScenarioSpec, str]

#: What a cell computes: a scenario result, or an artefact's render.
CellResult = Union[RunResult, QosRunResult, ShardedRunResult, str]


def _label(cell: Cell) -> str:
    """Short human-readable identity for progress/timing records."""
    return f"artefact:{cell}" if isinstance(cell, str) else cell.label


def spec_digest(cell: Cell) -> str:
    """Stable SHA-256 content address of a cell: its cache key.

    A scenario cell's digest is :meth:`ScenarioSpec.digest`, so a
    campaign cell and the equivalent ``repro run --scenario`` spec hit
    the same cache entry; an artefact cell digests its name under
    :data:`CACHE_VERSION`.
    """
    if isinstance(cell, ScenarioSpec):
        return cell.digest()
    canonical = json.dumps(
        {"version": CACHE_VERSION, "artefact": cell},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Cell execution (runs inside worker processes — module level, picklable)
# ----------------------------------------------------------------------
def execute_cell(cell: Cell) -> dict[str, Any]:
    """Run one cell and return its JSON-serialisable payload."""
    if isinstance(cell, ScenarioSpec):
        from repro.scenario.builder import run_scenario

        return scenario_payload(run_scenario(cell))
    # Artefact cells resolve the campaign registry lazily so the campaign
    # module can itself be built on this engine without an import cycle.
    from repro.experiments.campaign import default_registry

    registry = default_registry()
    if cell not in registry:
        raise ExperimentError(f"campaign has no artefact {cell!r}")
    return {"kind": "artefact", "render": registry[cell]()}


def _timed_execute(cell: Cell) -> dict[str, Any]:
    """Worker entry point: execute one cell, recording wall clock and pid.

    The payload is normalised through a JSON round trip here, at the
    single choke point every execution path shares, so a cell's payload
    compares equal whether it was just computed, shipped back from a
    worker, or read from the on-disk cache.
    """
    start = time.perf_counter()
    payload = json.loads(json.dumps(execute_cell(cell)))
    return {
        "payload": payload,
        "elapsed_s": time.perf_counter() - start,
        "worker": os.getpid(),
    }


# ----------------------------------------------------------------------
# On-disk cache
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed store of completed cells: one JSON file per digest.

    A cache entry records the spec it was computed from, its payload and
    the compute time, versioned by :data:`CACHE_VERSION`.  Corrupt,
    mismatched or stale-version entries read as misses and are
    overwritten on the next store, so a cache directory can never poison
    a campaign.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ConfigurationError(
                f"cache directory {self.directory} is not usable: {error}"
            ) from error
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path_for(self, digest: str) -> Path:
        return self.directory / f"{digest}.json"

    def get(self, digest: str) -> Optional[dict[str, Any]]:
        """The stored record for a digest, or ``None`` (counted as a miss)."""
        path = self.path_for(digest)
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            record.get("version") != CACHE_VERSION
            or record.get("digest") != digest
            or "payload" not in record
        ):
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, cell: Cell, digest: str, record: dict[str, Any]) -> None:
        """Store a computed cell; written atomically via a temp file.

        The cell is stored for provenance only (the digest is the lookup
        key): a scenario as its dict form, an artefact as its name.
        """
        entry = {
            "version": CACHE_VERSION,
            "digest": digest,
            "spec": (
                cell.to_dict()
                if isinstance(cell, ScenarioSpec)
                else {"artefact": cell}
            ),
            "elapsed_s": record.get("elapsed_s", 0.0),
            "payload": record["payload"],
        }
        path = self.path_for(digest)
        scratch = path.with_suffix(".tmp")
        scratch.write_text(json.dumps(entry, sort_keys=True) + "\n")
        scratch.replace(path)
        self.stores += 1

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))


def _resolve_cache(
    cache: Union[ResultCache, str, Path, None],
) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellOutcome:
    """Progress/timing record for one completed cell.

    ``source`` says where the result came from: ``cache`` (warm hit),
    ``pool`` (worker process), ``serial`` (in-process, either
    ``max_workers=1`` or degradation after the pool died) or ``retry``
    (recomputed in-process after a worker crash or timeout).
    """

    spec: Cell
    digest: str
    payload: dict[str, Any]
    elapsed_s: float
    source: str
    attempts: int
    worker: Optional[int] = None

    def result(self) -> CellResult:
        if isinstance(self.spec, str):
            return self.payload["render"]
        return scenario_result_from_payload(self.payload)


@dataclass
class EngineReport:
    """Everything one :func:`run_cells` fan-out produced, in spec order."""

    outcomes: list[CellOutcome] = field(default_factory=list)
    wall_clock_s: float = 0.0

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.source == "cache")

    @property
    def computed(self) -> int:
        return len(self.outcomes) - self.cache_hits

    @property
    def compute_seconds(self) -> float:
        """Total per-cell compute time (> wall clock when workers overlap)."""
        return sum(
            outcome.elapsed_s
            for outcome in self.outcomes
            if outcome.source != "cache"
        )

    def results(self) -> list[CellResult]:
        return [outcome.result() for outcome in self.outcomes]

    def format_timing(self) -> str:
        """A where-did-the-wall-clock-go table, slowest cells first."""
        rows = [
            (
                _label(outcome.spec),
                f"{outcome.elapsed_s:.2f}s",
                outcome.source,
                "-" if outcome.worker is None else str(outcome.worker),
            )
            for outcome in sorted(
                self.outcomes, key=lambda o: o.elapsed_s, reverse=True
            )
        ]
        summary = (
            f"{len(self.outcomes)} cells: {self.cache_hits} cached, "
            f"{self.computed} computed in {self.compute_seconds:.2f}s "
            f"compute / {self.wall_clock_s:.2f}s wall clock"
        )
        return (
            format_heading("Campaign execution timing")
            + "\n"
            + format_table(["cell", "elapsed", "source", "worker"], rows)
            + "\n"
            + summary
        )


#: Elapsed-time buckets for per-cell compute (sub-second figure renders
#: up to multi-minute QoS timelines).
_CELL_ELAPSED_BUCKETS_S = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 180.0)


def run_cells(
    specs: Sequence[Cell],
    max_workers: int = 1,
    cache: Union[ResultCache, str, Path, None] = None,
    timeout_s: Optional[float] = None,
    progress: Optional[Callable[[CellOutcome], None]] = None,
    registry: Optional[MetricsRegistry] = None,
) -> EngineReport:
    """Execute every cell, fanning out across processes when asked to.

    Results come back in spec order regardless of completion order, and
    each payload is identical whether computed serially, in a worker, or
    served from the cache.  Failure handling:

    * a worker crash (:class:`BrokenProcessPool`) or per-cell timeout
      triggers exactly one in-process retry of that cell;
    * a dead pool degrades the rest of the campaign to serial execution
      rather than failing it;
    * in serial mode exceptions propagate immediately — the simulations
      are deterministic, so a serial failure would only repeat.

    ``progress`` is invoked once per completed cell with its
    :class:`CellOutcome` (cache hits first, then computed cells).
    ``registry`` routes the engine's bookkeeping — cells by source,
    cache hits/misses, retries, per-cell elapsed time — through the
    metrics registry, at the single choke point every path shares.
    """
    if max_workers < 1:
        raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
    store = _resolve_cache(cache)
    started = time.perf_counter()
    report = EngineReport()
    outcomes: dict[int, CellOutcome] = {}

    def finish(index: int, outcome: CellOutcome) -> None:
        outcomes[index] = outcome
        if registry is not None:
            registry.counter(
                "repro_cells_total", "Cells finished, by result source"
            ).inc(source=outcome.source)
            if outcome.source == "cache":
                registry.counter(
                    "repro_cell_cache_hits_total", "Cells served from the cache"
                ).inc()
            else:
                registry.counter(
                    "repro_cell_cache_misses_total", "Cells that had to compute"
                ).inc()
                registry.histogram(
                    "repro_cell_elapsed_seconds",
                    "Per-cell compute time",
                    buckets=_CELL_ELAPSED_BUCKETS_S,
                ).observe(outcome.elapsed_s)
            if outcome.attempts > 1:
                registry.counter(
                    "repro_cell_retries_total",
                    "Cells recomputed after a worker crash or timeout",
                ).inc()
        if progress is not None:
            progress(outcome)

    pending: list[tuple[int, Cell, str]] = []
    for index, spec in enumerate(specs):
        digest = spec_digest(spec)
        record = store.get(digest) if store is not None else None
        if record is not None:
            finish(
                index,
                CellOutcome(
                    spec=spec,
                    digest=digest,
                    payload=record["payload"],
                    elapsed_s=0.0,
                    source="cache",
                    attempts=0,
                ),
            )
        else:
            pending.append((index, spec, digest))

    def compute_serial(
        index: int, spec: Cell, digest: str, source: str, attempts: int
    ) -> None:
        record = _timed_execute(spec)
        if store is not None:
            store.put(spec, digest, record)
        finish(
            index,
            CellOutcome(
                spec=spec,
                digest=digest,
                payload=record["payload"],
                elapsed_s=record["elapsed_s"],
                source=source,
                attempts=attempts,
                worker=record["worker"],
            ),
        )

    executor: Optional[ProcessPoolExecutor] = None
    if pending and max_workers > 1:
        try:
            executor = ProcessPoolExecutor(max_workers=max_workers)
        except (OSError, ValueError):
            executor = None  # no pool available: degrade to serial

    if executor is None:
        for index, spec, digest in pending:
            compute_serial(index, spec, digest, "serial", 1)
    else:
        try:
            futures = [
                (index, spec, digest, executor.submit(_timed_execute, spec))
                for index, spec, digest in pending
            ]
            pool_broken = False
            for index, spec, digest, future in futures:
                record: Optional[dict[str, Any]] = None
                if not pool_broken:
                    try:
                        record = future.result(timeout=timeout_s)
                    except BrokenProcessPool:
                        pool_broken = True
                    except FutureTimeoutError:
                        future.cancel()
                    except Exception:
                        # Worker died mid-cell (or the cell itself raised
                        # inside the pool): fall through to the retry.
                        pass
                else:
                    future.cancel()
                if record is not None:
                    if store is not None:
                        store.put(spec, digest, record)
                    finish(
                        index,
                        CellOutcome(
                            spec=spec,
                            digest=digest,
                            payload=record["payload"],
                            elapsed_s=record["elapsed_s"],
                            source="pool",
                            attempts=1,
                            worker=record["worker"],
                        ),
                    )
                elif pool_broken:
                    compute_serial(index, spec, digest, "serial", 1)
                else:
                    compute_serial(index, spec, digest, "retry", 2)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    report.outcomes = [outcomes[index] for index in range(len(specs))]
    report.wall_clock_s = time.perf_counter() - started
    return report

