"""Unit tests for the parallel experiment engine and its result cache."""

from __future__ import annotations

import json
import os
import pickle
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments import parallel
from repro.experiments.parallel import (
    CACHE_VERSION,
    ResultCache,
    execute_cell,
    run_cells,
)
from repro.experiments.export import scenario_payload
from repro.scenario import (
    ScenarioSpec,
    StageAllocation,
    build_trace,
    run_scenario,
    trace_to_spec,
)
from repro.workloads.loadgen import (
    ConstantLoad,
    DiurnalLoad,
    LoadTrace,
    PiecewiseLoad,
)


DURATION = 60.0
RATE = 1.0

#: The parent process; helpers below use it to misbehave only in workers.
MAIN_PID = os.getpid()

_REAL_EXECUTE = parallel.execute_cell


def _fail_in_worker(spec):
    """Crash when run inside a pool worker, succeed on the in-process retry."""
    if os.getpid() != MAIN_PID:
        raise RuntimeError("simulated worker crash")
    return _REAL_EXECUTE(spec)


def _sleep_in_worker(spec):
    """Stall inside a pool worker so the per-cell timeout fires."""
    if os.getpid() != MAIN_PID:
        time.sleep(5.0)
    return _REAL_EXECUTE(spec)


def latency_specs(count: int = 2) -> list[ScenarioSpec]:
    return [
        ScenarioSpec.latency(
            "sirius", "static", ("constant", RATE), DURATION, seed=seed
        )
        for seed in range(1, count + 1)
    ]


class TestCells:
    def test_scenario_cells_are_hashable_and_picklable(self):
        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ConstantLoad(2.0),
            300.0,
            seed=7,
            budget_watts=18.0,
            allocation={
                "ASR": StageAllocation(2, 3),
                "IMM": StageAllocation(1, 3),
                "QA": StageAllocation(1, 3),
            },
            n_cores=32,
        )
        assert spec == pickle.loads(pickle.dumps(spec))
        assert len({spec, spec}) == 1

    def test_scenario_cache_keys_are_pinned(self):
        # Cache directories written before the engine took scenario specs
        # keyed latency and QoS cells on these same digests.
        latency = ScenarioSpec.latency(
            "sirius", "static", ("constant", 1.0), 60.0, seed=1
        )
        qos = ScenarioSpec.qos("websearch", "powerchief", 8.0, 400.0, seed=3)
        assert latency.digest() == (
            "ec0ff7a16b052bd93cd6a0e595bf42d7c4a8916871c45de1dbfa978065a3964e"
        )
        assert qos.digest() == (
            "9452206317e07688c8937db3e933fe79d59f820b2849f979d4470205fd98bf7b"
        )

    def test_digest_is_stable_and_content_sensitive(self):
        first = ScenarioSpec.latency("sirius", "static", ("constant", 1.0), 60.0, seed=1)
        same = ScenarioSpec.latency("sirius", "static", ConstantLoad(1.0), 60.0, seed=1)
        other = ScenarioSpec.latency("sirius", "static", ("constant", 1.0), 60.0, seed=2)
        assert first.digest() == same.digest()
        assert first.digest() != other.digest()

    def test_non_scalar_option_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.latency(
                "sirius", "static", ("constant", 1.0), 60.0, budget=object()
            )

    def test_unknown_qos_deployment_fails_at_spec_time(self):
        with pytest.raises(ConfigurationError, match="QoS deployment"):
            ScenarioSpec.qos("nlp", "baseline", 4.0, 60.0)

    def test_trace_specs_round_trip(self):
        for trace in (
            ConstantLoad(3.5),
            PiecewiseLoad([(0.0, 1.0), (10.0, 2.0)]),
            DiurnalLoad(2.0, amplitude=0.25, period_s=600.0),
        ):
            rebuilt = build_trace(trace_to_spec(trace))
            assert type(rebuilt) is type(trace)
            for t in (0.0, 5.0, 50.0):
                assert rebuilt.rate_at(t) == trace.rate_at(t)

    def test_custom_trace_rejected(self):
        class Custom(LoadTrace):
            def rate_at(self, time: float) -> float:
                return 1.0

        with pytest.raises(ConfigurationError):
            trace_to_spec(Custom())


class TestResultCache:
    def test_round_trip_hit_and_miss_counters(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = latency_specs()
        cold = run_cells(specs, max_workers=1, cache=cache)
        assert cold.computed == len(specs)
        assert cold.cache_hits == 0
        assert cache.stores == len(specs)
        assert len(cache) == len(specs)

        warm = run_cells(specs, max_workers=1, cache=cache)
        assert warm.computed == 0
        assert warm.cache_hits == len(specs)
        assert [o.source for o in warm.outcomes] == ["cache"] * len(specs)
        for before, after in zip(cold.outcomes, warm.outcomes):
            assert before.payload == after.payload
            assert before.result() == after.result()

    def test_changed_cell_recomputes_only_itself(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = latency_specs()
        run_cells(specs, max_workers=1, cache=cache)
        changed = specs[:1] + [
            ScenarioSpec.latency(
                "sirius", "static", ("constant", RATE), DURATION, seed=99
            )
        ]
        report = run_cells(changed, max_workers=1, cache=cache)
        assert [o.source for o in report.outcomes] == ["cache", "serial"]

    @pytest.mark.parametrize(
        "text",
        ["{not json", "[]", "1", '"x"', "null", None],
        ids=["invalid", "list", "number", "string", "null", "scalar-payload"],
    )
    def test_corrupt_entry_reads_as_miss(self, tmp_path, text):
        cache = ResultCache(tmp_path)
        spec = latency_specs(1)[0]
        digest = spec.digest()
        if text is None:
            text = json.dumps(
                {"version": CACHE_VERSION, "digest": digest, "payload": 5}
            )
        cache.path_for(digest).write_text(text)
        assert cache.get(digest) is None
        assert cache.misses == 1
        report = run_cells([spec], max_workers=1, cache=cache)
        assert report.outcomes[0].source == "serial"
        record = cache.get(digest)
        assert record is not None
        assert record["payload"] == report.outcomes[0].payload

    def test_concurrent_puts_of_one_digest_both_land(self, tmp_path, monkeypatch):
        # Two writers sharing a directory store the same digest; the
        # second's whole put runs between the first's write and rename.
        first, second = ResultCache(tmp_path), ResultCache(tmp_path)
        spec = latency_specs(1)[0]
        digest = spec.digest()
        record = {"payload": {"kind": "latency", "result": {}}, "elapsed_s": 0.5}
        real_replace = Path.replace
        nested = []

        def replace_after_second_put(self, target):
            if not nested:
                nested.append(target)
                second.put(spec, digest, record)
            return real_replace(self, target)

        monkeypatch.setattr(Path, "replace", replace_after_second_put)
        first.put(spec, digest, record)
        assert nested and first.stores == second.stores == 1
        entry = first.get(digest)
        assert entry is not None and entry["payload"] == record["payload"]
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            f"{digest}.json"
        ]

    def test_version_mismatch_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = latency_specs(1)[0]
        run_cells([spec], max_workers=1, cache=cache)
        digest = spec.digest()
        entry = json.loads(cache.path_for(digest).read_text())
        entry["version"] = CACHE_VERSION + 1
        cache.path_for(digest).write_text(json.dumps(entry))
        assert cache.get(digest) is None


class TestEngine:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            run_cells(latency_specs(1), max_workers=0)

    def test_serial_and_parallel_results_are_byte_identical(self):
        specs = latency_specs()
        serial = run_cells(specs, max_workers=1)
        pooled = run_cells(specs, max_workers=2)
        assert [o.source for o in pooled.outcomes] == ["pool"] * len(specs)
        for left, right in zip(serial.outcomes, pooled.outcomes):
            assert json.dumps(left.payload, sort_keys=True) == json.dumps(
                right.payload, sort_keys=True
            )

    def test_engine_payload_matches_direct_run(self):
        spec = latency_specs(1)[0]
        report = run_cells([spec], max_workers=1)
        direct = run_scenario(spec)
        assert report.outcomes[0].payload == json.loads(
            json.dumps(scenario_payload(direct))
        )
        assert report.outcomes[0].result() == direct

    def test_qos_cells_round_trip(self):
        spec = ScenarioSpec.qos("sirius", "baseline", 4.0, DURATION, seed=1)
        report = run_cells([spec], max_workers=1)
        result = report.outcomes[0].result()
        assert result.app == "sirius"
        assert result.average_power_fraction == pytest.approx(1.0)

    def test_worker_crash_retries_in_process(self, monkeypatch):
        monkeypatch.setattr(parallel, "execute_cell", _fail_in_worker)
        specs = latency_specs()
        report = run_cells(specs, max_workers=2)
        assert [o.source for o in report.outcomes] == ["retry"] * len(specs)
        assert all(o.attempts == 2 for o in report.outcomes)
        assert all(o.result().queries_completed > 0 for o in report.outcomes)

    def test_cell_timeout_retries_in_process(self, monkeypatch):
        monkeypatch.setattr(parallel, "execute_cell", _sleep_in_worker)
        report = run_cells(latency_specs(1), max_workers=2, timeout_s=0.25)
        assert report.outcomes[0].source == "retry"
        assert report.outcomes[0].result().queries_completed > 0

    def test_unavailable_pool_degrades_to_serial(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)
        specs = latency_specs()
        report = run_cells(specs, max_workers=4)
        assert [o.source for o in report.outcomes] == ["serial"] * len(specs)

    def test_dead_pool_degrades_to_serial(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        class BrokenFuture:
            def result(self, timeout=None):
                raise BrokenProcessPool("pool died")

            def cancel(self):
                return True

        class BrokenPool:
            def __init__(self, max_workers=None):
                pass

            def submit(self, fn, *args, **kwargs):
                return BrokenFuture()

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", BrokenPool)
        specs = latency_specs()
        report = run_cells(specs, max_workers=2)
        assert [o.source for o in report.outcomes] == ["serial"] * len(specs)
        assert all(o.result().queries_completed > 0 for o in report.outcomes)

    def test_timing_report_accounts_for_every_cell(self):
        report = run_cells(latency_specs(), max_workers=1)
        timing = report.format_timing()
        assert "latency:sirius/static seed=1" in timing
        assert f"{report.computed} computed" in timing
        assert report.compute_seconds > 0.0

    def test_timing_rows_tell_cells_apart(self):
        # Same label, different rate: only the digest column separates them.
        specs = [
            ScenarioSpec.latency("sirius", "static", ("constant", rate), DURATION)
            for rate in (1.0, 1.5)
        ]
        assert specs[0].label == specs[1].label
        timing = run_cells(specs, max_workers=1).format_timing()
        rows = [line for line in timing.splitlines() if specs[0].label in line]
        assert len(rows) == 2
        for spec in specs:
            assert sum(spec.digest()[:16] in row for row in rows) == 1


class _FakeFuture:
    """A future that fails with a scripted error instead of computing."""

    def __init__(self, error: Exception) -> None:
        self._error = error
        self.cancelled = False
        self.polled = False

    def result(self, timeout=None):
        self.polled = True
        raise self._error

    def cancel(self) -> bool:
        self.cancelled = True
        return True


class _FakePool:
    """Stands in for ProcessPoolExecutor; never spawns a process."""

    def __init__(self, errors, max_workers=None):
        self._errors = list(errors)
        self.futures: list[_FakeFuture] = []
        self.shut_down = False

    def submit(self, fn, *args, **kwargs):
        future = _FakeFuture(self._errors[len(self.futures)])
        self.futures.append(future)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


class TestDeterministicRetryPath:
    """The crash/timeout retry path, driven by a scripted fake pool.

    The real-pool tests above prove the plumbing end to end but lean on
    wall-clock sleeps; these pin the retry contract — exactly one
    in-process recompute, ``source == "retry"``, ``attempts == 2`` —
    without spawning a single process.
    """

    def _arm(self, monkeypatch, errors):
        pools = []

        def fake_pool_factory(max_workers=None):
            pool = _FakePool(errors, max_workers=max_workers)
            pools.append(pool)
            return pool

        calls = []
        real_timed_execute = parallel._timed_execute

        def counting_timed_execute(spec):
            calls.append(spec)
            return real_timed_execute(spec)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", fake_pool_factory)
        monkeypatch.setattr(parallel, "_timed_execute", counting_timed_execute)
        return pools, calls

    def test_timeout_retries_exactly_once_in_process(self, monkeypatch):
        from concurrent.futures import TimeoutError as FutureTimeoutError

        specs = latency_specs(2)
        pools, calls = self._arm(
            monkeypatch, [FutureTimeoutError(), FutureTimeoutError()]
        )
        report = run_cells(specs, max_workers=2, timeout_s=0.01)
        assert [o.source for o in report.outcomes] == ["retry", "retry"]
        assert [o.attempts for o in report.outcomes] == [2, 2]
        # Exactly one in-process recompute per timed-out cell, no more.
        assert calls == specs
        assert all(f.cancelled for f in pools[0].futures)
        assert pools[0].shut_down
        assert all(o.result().queries_completed > 0 for o in report.outcomes)

    def test_worker_exception_retries_exactly_once_in_process(self, monkeypatch):
        specs = latency_specs(1)
        pools, calls = self._arm(monkeypatch, [RuntimeError("worker died")])
        report = run_cells(specs, max_workers=2)
        assert report.outcomes[0].source == "retry"
        assert report.outcomes[0].attempts == 2
        assert calls == specs
        assert report.outcomes[0].result().queries_completed > 0

    def test_broken_pool_degrades_remaining_cells_to_serial(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        specs = latency_specs(2)
        pools, calls = self._arm(
            monkeypatch,
            [BrokenProcessPool("pool died"), RuntimeError("never polled")],
        )
        report = run_cells(specs, max_workers=2)
        # Both cells fall back serially with a single attempt each: the
        # first broke the pool, the second is cancelled without polling.
        assert [o.source for o in report.outcomes] == ["serial", "serial"]
        assert [o.attempts for o in report.outcomes] == [1, 1]
        assert calls == specs
        assert not pools[0].futures[1].polled
        assert pools[0].futures[1].cancelled

    def test_retry_payload_matches_serial_compute(self, monkeypatch):
        from concurrent.futures import TimeoutError as FutureTimeoutError

        specs = latency_specs(1)
        clean = run_cells(specs, max_workers=1)
        self._arm(monkeypatch, [FutureTimeoutError()])
        retried = run_cells(specs, max_workers=2, timeout_s=0.01)
        assert retried.outcomes[0].payload == clean.outcomes[0].payload

