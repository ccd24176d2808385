"""Unit tests for the streaming JSONL exporter."""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro.errors import ConfigurationError
from repro.obs.stream import StreamExporter
from repro.sim.engine import Simulator


def _tick(sim, until, step=1.0):
    """Schedule no-op events on a grid so the hook has beats to ride."""
    time = step
    while time <= until:
        sim.schedule(time - sim.now, lambda: None)
        time += step
    sim.run()


class TestCadence:
    def test_snapshots_land_on_the_interval_grid(self):
        sim = Simulator()
        exporter = StreamExporter(interval_s=5.0)
        exporter.add_probe("beat", lambda: "x")
        exporter.attach(sim)
        _tick(sim, 20.0)
        times = [json.loads(line)["t"] for line in exporter.lines]
        # One snapshot at the first event on or after each 5 s boundary
        # (the t=0 boundary is served by the first event, at t=1).
        assert times == [1.0, 5.0, 10.0, 15.0, 20.0]
        assert exporter.snapshots_written == 5
        exporter.close()

    def test_quiet_gaps_do_not_backfill(self):
        sim = Simulator()
        exporter = StreamExporter(interval_s=5.0)
        exporter.attach(sim)
        sim.schedule(42.0, lambda: None)
        sim.run()
        # One beat long after several due boundaries: exactly one
        # snapshot fires and the grid re-anchors past it.
        assert exporter.snapshots_written == 1
        assert json.loads(exporter.lines[0])["t"] == 42.0

    def test_probe_values_and_sequence_numbers(self):
        sim = Simulator()
        exporter = StreamExporter(interval_s=1.0)
        counter = {"n": 0}

        def probe():
            counter["n"] += 1
            return counter["n"]

        exporter.add_probe("n", probe)
        exporter.attach(sim)
        _tick(sim, 3.0)
        payloads = [json.loads(line) for line in exporter.lines]
        assert [p["t"] for p in payloads] == [1.0, 2.0, 3.0]
        assert [p["seq"] for p in payloads] == [0, 1, 2]
        assert [p["n"] for p in payloads] == [1, 2, 3]
        exporter.close()


class TestHookCost:
    @staticmethod
    def _clock_reads(events: int) -> int:
        """``Simulator.now`` reads while ``events`` no-op events fire
        under an attached exporter."""
        sim = Simulator()
        exporter = StreamExporter(interval_s=5.0)
        exporter.attach(sim)
        for index in range(events):
            sim.schedule(0.01 * index, lambda: None)
        reads = 0
        clock = Simulator.now.fget

        def counted(self):
            nonlocal reads
            reads += 1
            return clock(self)

        with mock.patch.object(Simulator, "now", property(counted)):
            sim.run()
        assert exporter.snapshots_written > 0
        exporter.close()
        return reads

    def test_the_hook_reads_the_event_time_not_the_clock(self):
        assert self._clock_reads(10) == self._clock_reads(1_000)


class TestMarks:
    def test_marks_interleave_with_snapshots(self):
        sim = Simulator()
        exporter = StreamExporter(interval_s=10.0)
        exporter.attach(sim)
        sim.schedule(2.0, lambda: exporter.mark("fault", kind="crash"))
        sim.run()
        marks = [
            json.loads(line)
            for line in exporter.lines
            if "mark" in json.loads(line)
        ]
        assert len(marks) == 1
        assert marks[0] == {"t": 2.0, "mark": "fault", "kind": "crash"}
        assert exporter.marks_written == 1

    def test_marks_before_attach_and_after_close_are_dropped(self):
        exporter = StreamExporter()
        exporter.mark("too-early")
        sim = Simulator()
        exporter.attach(sim)
        exporter.close()
        exporter.mark("too-late")
        assert exporter.marks_written == 0


class TestSink:
    def test_path_sink_holds_every_line(self, tmp_path):
        target = tmp_path / "nested" / "stream.jsonl"
        sim = Simulator()
        exporter = StreamExporter(path=target, interval_s=1.0)
        exporter.attach(sim)
        _tick(sim, 2.0)
        exporter.mark("done")
        exporter.close()
        on_disk = target.read_text().splitlines()
        assert on_disk == exporter.lines
        assert len(on_disk) == exporter.snapshots_written + 1

    def test_close_takes_a_final_snapshot_and_detaches(self):
        sim = Simulator()
        exporter = StreamExporter(interval_s=100.0)
        exporter.attach(sim)
        _tick(sim, 7.0)
        before = exporter.snapshots_written
        exporter.close()
        assert exporter.snapshots_written == before + 1
        assert not exporter.attached
        exporter.close()  # idempotent
        assert exporter.snapshots_written == before + 1


class TestValidation:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ConfigurationError):
            StreamExporter(interval_s=0.0)

    def test_rejects_duplicate_probe_names(self):
        exporter = StreamExporter()
        exporter.add_probe("a", lambda: 1)
        with pytest.raises(ConfigurationError):
            exporter.add_probe("a", lambda: 2)

    def test_rejects_double_attach_and_attach_after_close(self):
        sim = Simulator()
        exporter = StreamExporter()
        exporter.attach(sim)
        with pytest.raises(ConfigurationError):
            exporter.attach(sim)
        exporter.close()
        with pytest.raises(ConfigurationError):
            exporter.attach(sim)
