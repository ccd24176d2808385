"""The reprod daemon over a real unix control socket.

Each test boots the daemon in a background thread (turbo mode, so runs
advance as fast as the loop spins) and drives it with
:class:`~repro.serve.client.CtlClient`.  Commands that must land at a
deterministic simulated time target paused runs — the daemon never
advances those, so the whole exchange is reproducible.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.errors import ProtocolError, ServeError
from repro.scenario.spec import ScenarioSpec, StageAllocation
from repro.serve import CtlClient, ReproDaemon
from repro.units import exactly

SPEC = ScenarioSpec.latency(
    "sirius", "powerchief", ("constant", 1.5), 30.0, seed=3
)

#: 64 instances sampled every 50 ms: a result of about 1.6 MB, several
#: times the default unix-socket send buffer.
BIG_SPEC = ScenarioSpec.latency(
    "sirius",
    "static",
    ("constant", 1.0),
    60.0,
    seed=3,
    budget_watts=1000.0,
    allocation={
        stage: StageAllocation(count=count, level=1)
        for stage, count in (("ASR", 22), ("IMM", 21), ("QA", 21))
    },
    n_cores=64,
    sample_interval_s=0.05,
)


@pytest.fixture
def daemon(tmp_path):
    path = str(tmp_path / "reprod.sock")
    server = ReproDaemon(path, turbo=True, quantum_s=30.0, poll_interval_s=0.005)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5.0
    while not _exists(path):
        if time.monotonic() > deadline:
            raise RuntimeError("daemon never bound its socket")
        time.sleep(0.01)
    try:
        yield server, path
    finally:
        server.shutdown()
        thread.join(timeout=5.0)
        assert not thread.is_alive()


def _exists(path):
    import os

    return os.path.exists(path)


def _client(path) -> CtlClient:
    return CtlClient(path, timeout_s=10.0)


class TestCommands:
    def test_ping(self, daemon):
        _, path = daemon
        with _client(path) as ctl:
            assert ctl.call("ping") == {"pong": True, "runs": 0}

    def test_submit_runs_to_completion_and_serves_the_result(self, daemon):
        _, path = daemon
        with _client(path) as ctl:
            submitted = ctl.call("submit", spec=SPEC.to_dict(), name="ci")
            assert submitted["run"] == "ci"
            assert exactly(submitted["end_s"], 30.0)
            assert submitted["digest"]
            ctl.call("watch", run="ci")
            finished = _await_finished(ctl, "ci")
            assert finished["data"]["result_ready"] is True
            assert finished["data"]["error"] is None
            result = ctl.call("result", run="ci")
            assert result["kind"] == "latency"
            assert result["result"]["queries_completed"] > 0

    def test_submit_autonames_and_rejects_duplicates(self, daemon):
        _, path = daemon
        with _client(path) as ctl:
            first = ctl.call("submit", spec=SPEC.to_dict(), paused=True)
            assert first["run"] == "run0"
            ctl.call("submit", spec=SPEC.to_dict(), name="twin", paused=True)
            with pytest.raises(ServeError, match="already hosted"):
                ctl.call("submit", spec=SPEC.to_dict(), name="twin")

    def test_status_single_and_all(self, daemon):
        _, path = daemon
        with _client(path) as ctl:
            ctl.call("submit", spec=SPEC.to_dict(), name="a", paused=True)
            ctl.call("submit", spec=SPEC.to_dict(), name="b", paused=True)
            single = ctl.call("status", run="a")
            assert single["name"] == "a"
            assert single["paused"] is True
            everything = ctl.call("status")
            assert [r["name"] for r in everything["runs"]] == ["a", "b"]
            assert everything["turbo"] is True

    def test_unknown_run_is_a_serve_error(self, daemon):
        _, path = daemon
        with _client(path) as ctl:
            with pytest.raises(ServeError, match="no hosted run"):
                ctl.call("status", run="ghost")

    def test_live_budget_change_audits_through_the_guard_layer(self, daemon):
        _, path = daemon
        with _client(path) as ctl:
            ctl.call("submit", spec=SPEC.to_dict(), name="ci", paused=True)
            before = ctl.call("status", run="ci")["budget_watts"]
            change = ctl.call("budget", run="ci", watts=before / 2.0)
            assert change["previous_watts"] == before
            assert exactly(change["applied_watts"], before / 2.0)
            assert change["step_downs"] > 0
            audit = ctl.call("audit", run="ci", kind="budget-change")
            assert audit["count"] == 1
            entry = audit["entries"][0]
            assert entry["kind"] == "budget-change"
            assert exactly(entry["applied_watts"], before / 2.0)
            # The halved run still completes within its cap.
            done = ctl.call("drain", run="ci")
            assert done["finished"] is True
            assert exactly(ctl.call("status", run="ci")["budget_watts"], before / 2.0)

    def test_budget_rejects_non_numbers(self, daemon):
        _, path = daemon
        with _client(path) as ctl:
            ctl.call("submit", spec=SPEC.to_dict(), name="ci", paused=True)
            with pytest.raises(ProtocolError, match="must be a number"):
                ctl.call("budget", run="ci", watts=True)
            with pytest.raises(ProtocolError, match="must be a number"):
                ctl.call("budget", run="ci", watts="12")

    def test_slo_retarget_needs_the_pillar(self, daemon):
        _, path = daemon
        spec = ScenarioSpec.latency(
            "sirius",
            "powerchief",
            ("constant", 1.5),
            30.0,
            seed=3,
            observe=("slo",),
            slo_target_s=3.0,
        )
        with _client(path) as ctl:
            ctl.call("submit", spec=SPEC.to_dict(), name="dark", paused=True)
            with pytest.raises(ServeError, match="no SLO tracker"):
                ctl.call("slo", run="dark", target_s=1.0)
            ctl.call("submit", spec=spec.to_dict(), name="lit", paused=True)
            retarget = ctl.call("slo", run="lit", target_s=1.5)
            assert exactly(retarget["previous_target_s"], 3.0)
            assert exactly(retarget["target_s"], 1.5)

    def test_pause_resume_gate_advancement(self, daemon):
        _, path = daemon
        with _client(path) as ctl:
            ctl.call("submit", spec=SPEC.to_dict(), name="gate", paused=True)
            time.sleep(0.05)
            assert exactly(ctl.call("status", run="gate")["now_s"], 0.0)
            ctl.call("resume", run="gate")
            ctl.call("watch", run="gate")
            _await_finished(ctl, "gate")
            assert exactly(ctl.call("status", run="gate")["now_s"], 30.0)
            paused = ctl.call("pause", run="gate")
            assert paused["paused"] is True

    def test_drain_fast_forwards_synchronously(self, daemon):
        _, path = daemon
        with _client(path) as ctl:
            ctl.call("submit", spec=SPEC.to_dict(), name="ff", paused=True)
            status = ctl.call("drain", run="ff")
            assert status["finished"] is True
            assert status["result_ready"] is True
            assert ctl.call("result", run="ff")["kind"] == "latency"

    def test_result_before_completion_is_an_error(self, daemon):
        _, path = daemon
        with _client(path) as ctl:
            ctl.call("submit", spec=SPEC.to_dict(), name="early", paused=True)
            with pytest.raises(ServeError, match="no result yet"):
                ctl.call("result", run="early")

    def test_stop_aborts_the_run(self, daemon):
        _, path = daemon
        with _client(path) as ctl:
            ctl.call("submit", spec=SPEC.to_dict(), name="doomed", paused=True)
            status = ctl.call("stop", run="doomed")
            assert status["phase"] == "aborted"
            assert status["error"] == "aborted by operator"
            with pytest.raises(ServeError, match="no result yet"):
                ctl.call("result", run="doomed")

    def test_result_larger_than_the_socket_buffer_arrives_intact(self, daemon):
        from repro.experiments.export import scenario_payload
        from repro.scenario import run_scenario

        _, path = daemon
        with _client(path) as ctl:
            ctl.call("submit", spec=BIG_SPEC.to_dict(), name="big", paused=True)
            ctl.call("drain", run="big")
            result = ctl.call("result", run="big")
            # The connection survives the large reply.
            assert ctl.call("ping")["pong"] is True
        assert len(json.dumps(result)) > 1024 * 1024
        expected = json.loads(json.dumps(scenario_payload(run_scenario(BIG_SPEC))))
        assert result == expected

    def test_client_that_stops_reading_is_dropped(self, daemon, monkeypatch):
        from repro.serve import daemon as daemon_module

        monkeypatch.setattr(daemon_module, "_MAX_OUTBOX_BYTES", 64 * 1024)
        _, path = daemon
        with _client(path) as ctl:
            ctl.call("submit", spec=BIG_SPEC.to_dict(), name="big", paused=True)
            ctl.call("drain", run="big")
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(path)
            request = {"id": 1, "cmd": "result", "args": {"run": "big"}}
            sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
            # Let the reply back up past the cap before reading any of it.
            time.sleep(0.5)
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        assert not received.endswith(b"\n"), "the whole reply was delivered"
        with _client(path) as ctl:
            assert ctl.call("ping")["pong"] is True


class TestWatching:
    def test_watch_streams_snapshots_then_finished(self, daemon):
        _, path = daemon
        with _client(path) as ctl:
            ctl.call("submit", spec=SPEC.to_dict(), name="w", paused=True)
            ctl.call("watch", run="w")
            ctl.call("resume", run="w")
            snapshots = 0
            finished = None
            for event in ctl.events():
                assert event["run"] == "w"
                if event["event"] == "snapshot":
                    snapshots += 1
                    json.loads(event["data"]["line"])
                elif event["event"] == "finished":
                    finished = event
                    break
            assert snapshots > 0
            assert finished is not None
            assert finished["data"]["phase"] == "collected"

    def test_unwatch_stops_the_feed(self, daemon):
        _, path = daemon
        with _client(path) as ctl:
            ctl.call("submit", spec=SPEC.to_dict(), name="u", paused=True)
            ctl.call("watch", run="u")
            cleared = ctl.call("unwatch")
            assert cleared == {"watching": []}


class TestProtocolEdges:
    def _raw(self, path, payload: bytes) -> dict:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(path)
            sock.sendall(payload)
            buffer = b""
            while b"\n" not in buffer:
                chunk = sock.recv(65536)
                if not chunk:
                    raise AssertionError("the daemon hung up without a reply")
                buffer += chunk
            return json.loads(buffer.split(b"\n", 1)[0])

    def test_junk_line_answers_protocol_error_with_null_id(self, daemon):
        _, path = daemon
        answer = self._raw(path, b"this is not json\n")
        assert answer["id"] is None
        assert answer["ok"] is False
        assert answer["error"]["type"] == "ProtocolError"

    def test_unknown_command_rejected_before_dispatch(self, daemon):
        _, path = daemon
        line = json.dumps({"id": 1, "cmd": "reboot", "args": {}}).encode()
        answer = self._raw(path, line + b"\n")
        assert answer["ok"] is False
        assert "unknown command" in answer["error"]["message"]

    def test_hostile_lines_leave_the_daemon_serving(self, daemon):
        _, path = daemon
        with _client(path) as ctl:
            ctl.call("submit", spec=SPEC.to_dict(), name="held", paused=True)

        def submit(spec, **args):
            return json.dumps(
                {"id": 1, "cmd": "submit", "args": {"spec": spec, **args}}
            )

        hostile = [
            '{"id": ' + "9" * 5000 + ', "cmd": "ping"}',
            "[" * 100_000 + "]" * 100_000,
            submit(dict(SPEC.to_dict(), duration_s=None)),
            submit(dict(SPEC.to_dict(), seed=None)),
            submit(SPEC.to_dict(), name=[]),
            submit(SPEC.to_dict(), name=5),
        ]
        for line in hostile:
            answer = self._raw(path, line.encode() + b"\n")
            assert answer["ok"] is False, line[:80]
        with _client(path) as ctl:
            assert ctl.call("ping") == {"pong": True, "runs": 1}
            runs = ctl.call("status")["runs"]
            assert [(r["name"], r["paused"]) for r in runs] == [("held", True)]

    def test_shutdown_command_stops_the_loop(self, tmp_path):
        path = str(tmp_path / "reprod.sock")
        server = ReproDaemon(path, turbo=True, poll_interval_s=0.005)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while not _exists(path):
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never bound its socket")
            time.sleep(0.01)
        with _client(path) as ctl:
            assert ctl.call("shutdown") == {"stopping": True, "runs": 0}
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert not _exists(path)  # the socket file was unlinked


class TestConstruction:
    def test_daemon_needs_an_endpoint(self):
        with pytest.raises(ServeError, match="unix socket path or a TCP host"):
            ReproDaemon()

    def test_rate_and_quantum_must_be_positive(self, tmp_path):
        path = str(tmp_path / "s.sock")
        with pytest.raises(ServeError, match="rate"):
            ReproDaemon(path, rate=0.0)
        with pytest.raises(ServeError, match="quantum"):
            ReproDaemon(path, quantum_s=-1.0)

    def test_client_needs_an_endpoint(self):
        with pytest.raises(ServeError, match="unix socket path or a TCP host"):
            CtlClient()


def _await_finished(ctl: CtlClient, run: str) -> dict:
    for event in ctl.events():
        if event["event"] == "finished" and event["run"] == run:
            return event
    raise AssertionError(f"never saw the finished event for {run!r}")
