"""Parallel experiment execution with content-addressed result caching.

Every cell of the evaluation is one scenario run: an independent,
deterministically seeded computation, so a campaign is an embarrassingly
parallel fan-out.  This module is the substrate the figure runner (and
through it the campaign, ``repro figures`` and the headline summary),
``repro run`` and the sweep benchmarks execute on:

* a cell is a :class:`~repro.scenario.spec.ScenarioSpec` (a frozen,
  hashable, picklable run description), and its cache key is the spec's
  own :meth:`~repro.scenario.spec.ScenarioSpec.digest`, so a campaign
  cell and ``repro run --scenario`` share cache entries;
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

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.experiments.export import (
    scenario_payload,
    scenario_result_from_payload,
)
from repro.experiments.report import format_heading, format_table
from repro.scenario.results import QosRunResult, RunResult, ShardedRunResult
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "CACHE_VERSION",
    "CellOutcome",
    "EngineReport",
    "ResultCache",
    "execute_cell",
    "run_cells",
]

#: Bumped whenever the payload layout or cell semantics change; part of
#: every cache entry, so stale entries can never be mistaken for fresh.
#: Version 2: scenario cells digest through the scenario layer's
#: canonical :meth:`~repro.scenario.spec.ScenarioSpec.digest`.
CACHE_VERSION = 2

#: What a cell computes.
CellResult = Union[RunResult, QosRunResult, ShardedRunResult]


# ----------------------------------------------------------------------
# Cell execution (runs inside worker processes — module level, picklable)
# ----------------------------------------------------------------------
def execute_cell(spec: ScenarioSpec) -> dict[str, Any]:
    """Run one cell and return its JSON-serialisable payload."""
    from repro.scenario.builder import run_scenario

    return scenario_payload(run_scenario(spec))


def _timed_execute(spec: ScenarioSpec) -> dict[str, Any]:
    """Worker entry point: execute one cell, recording wall clock and pid.

    The payload is normalised through a JSON round trip here, at the
    single choke point every execution path shares, so a cell's payload
    compares equal whether it was just computed, shipped back from a
    worker, or read from the on-disk cache.
    """
    start = time.perf_counter()
    payload = json.loads(json.dumps(execute_cell(spec)))
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
    mismatched or stale-version entries — anything that is not a JSON
    object with this version, this digest and an object payload — read
    as misses and are overwritten on the next store, so a cache
    directory can never poison a campaign.  Each store writes through a
    temp file of its own, so processes sharing a directory never trip
    over each other's writes.
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
            not isinstance(record, dict)
            or record.get("version") != CACHE_VERSION
            or record.get("digest") != digest
            or not isinstance(record.get("payload"), dict)
        ):
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, spec: ScenarioSpec, digest: str, record: dict[str, Any]) -> None:
        """Store a computed cell; written atomically via a temp file.

        The spec is stored as its dict form for provenance only (the
        digest is the lookup key).
        """
        import tempfile

        entry = {
            "version": CACHE_VERSION,
            "digest": digest,
            "spec": spec.to_dict(),
            "elapsed_s": record.get("elapsed_s", 0.0),
            "payload": record["payload"],
        }
        handle, name = tempfile.mkstemp(
            prefix=f"{digest}.", suffix=".tmp", dir=self.directory
        )
        scratch = Path(name)
        try:
            with os.fdopen(handle, "w") as stream:
                stream.write(json.dumps(entry, sort_keys=True) + "\n")
            scratch.replace(self.path_for(digest))
        except BaseException:
            scratch.unlink(missing_ok=True)
            raise
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

    spec: ScenarioSpec
    digest: str
    payload: dict[str, Any]
    elapsed_s: float
    source: str
    attempts: int
    worker: Optional[int] = None

    def result(self) -> CellResult:
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
        """A where-did-the-wall-clock-go table, slowest cells first.

        Each row carries the digest prefix ``repro run`` prints, since
        cells that differ only in, say, their rate share a label.
        """
        rows = [
            (
                outcome.spec.label,
                outcome.digest[:16],
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
            + format_table(["cell", "digest", "elapsed", "source", "worker"], rows)
            + "\n"
            + summary
        )


def run_cells(
    specs: Sequence[ScenarioSpec],
    max_workers: int = 1,
    cache: Union[ResultCache, str, Path, None] = None,
    timeout_s: Optional[float] = None,
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
    """
    if max_workers < 1:
        raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
    store = _resolve_cache(cache)
    started = time.perf_counter()
    report = EngineReport()
    outcomes: dict[int, CellOutcome] = {}

    pending: list[tuple[int, ScenarioSpec, str]] = []
    for index, spec in enumerate(specs):
        digest = spec.digest()
        record = store.get(digest) if store is not None else None
        if record is not None:
            outcomes[index] = CellOutcome(
                spec=spec,
                digest=digest,
                payload=record["payload"],
                elapsed_s=0.0,
                source="cache",
                attempts=0,
            )
        else:
            pending.append((index, spec, digest))

    def compute_serial(
        index: int, spec: ScenarioSpec, digest: str, source: str, attempts: int
    ) -> None:
        record = _timed_execute(spec)
        if store is not None:
            store.put(spec, digest, record)
        outcomes[index] = CellOutcome(
            spec=spec,
            digest=digest,
            payload=record["payload"],
            elapsed_s=record["elapsed_s"],
            source=source,
            attempts=attempts,
            worker=record["worker"],
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
                    outcomes[index] = CellOutcome(
                        spec=spec,
                        digest=digest,
                        payload=record["payload"],
                        elapsed_s=record["elapsed_s"],
                        source="pool",
                        attempts=1,
                        worker=record["worker"],
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

