"""The reprod daemon over a real unix control socket.

Each test boots the daemon in a background thread (turbo mode, so runs
advance as fast as the loop spins) and drives it with
:class:`~repro.serve.client.CtlClient`.  Commands that must land at a
deterministic simulated time target paused runs — the daemon never
advances those, so the whole exchange is reproducible.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import math
import selectors
import socket
import threading
import time
import warnings

import pytest

from repro.cli import main
from repro.errors import ProtocolError, ServeError
from repro.scenario.spec import ScenarioSpec, StageAllocation
from repro.serve import CtlClient, ReproDaemon
from repro.serve.protocol import MAX_LINE_BYTES
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
    with _serving(path, quantum_s=30.0, poll_interval_s=0.005) as server:
        yield server, path


@contextlib.contextmanager
def _serving(path, **options):
    """A turbo daemon serving ``path`` from a background thread."""
    server = ReproDaemon(path, turbo=True, **options)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _await_ping(path)
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=5.0)
        assert not thread.is_alive()


def _await_ping(path, timeout_s=5.0):
    """Retry ``ping`` until the daemon at ``path`` answers.

    The socket file appears at ``bind()``, a moment before ``listen()``;
    a client that connects in between is refused, so the file alone does
    not mean the daemon serves.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            with _client(path) as ctl:
                ctl.call("ping")
            return
        except (FileNotFoundError, ConnectionRefusedError):
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


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

    def test_disconnect_mid_watch_leaves_nothing_behind(self, daemon):
        server, path = daemon
        # Ten simulated hours: the run is still advancing when the
        # watcher hangs up (the fixture's shutdown aborts it).
        long_spec = ScenarioSpec.latency(
            "sirius", "powerchief", ("constant", 1.5), 36_000.0, seed=3
        )
        with _client(path) as ctl:
            ctl.call("submit", spec=long_spec.to_dict(), name="live")
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(path)
            request = {"id": 1, "cmd": "watch", "args": {"run": "live"}}
            sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
            buffer = b""
            while b"\n" not in buffer:
                buffer += sock.recv(65536)
            reply = json.loads(buffer.split(b"\n", 1)[0])
            assert reply["result"] == {"run": "live", "watching": True}
            assert any("live" in c.watching for c in server._connections)
        deadline = time.monotonic() + 5.0
        while server._connections:
            assert time.monotonic() < deadline, "the closed watcher lingers"
            time.sleep(0.01)
        with _client(path) as ctl:
            assert ctl.call("ping") == {"pong": True, "runs": 1}
            assert ctl.call("status", run="live")["error"] is None


class TestProtocolEdges:
    def _raw(self, path, payload: bytes) -> dict:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(path)
            sock.sendall(payload)
            return _read_lines(sock, 1)[0]

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
            cap = ctl.call("status", run="held")["budget_watts"]

        def submit(spec, **args):
            return json.dumps(
                {"id": 1, "cmd": "submit", "args": {"spec": spec, **args}}
            )

        def budget(watts: str):
            # Raw JSON text: 1e400 decodes to inf, NaN and -Infinity are
            # the non-standard constants Python's decoder accepts.
            return (
                '{"id": 1, "cmd": "budget", '
                '"args": {"run": "held", "watts": ' + watts + "}}"
            )

        hostile = [
            '{"id": ' + "9" * 5000 + ', "cmd": "ping"}',
            "[" * 100_000 + "]" * 100_000,
            submit(dict(SPEC.to_dict(), duration_s=None)),
            submit(dict(SPEC.to_dict(), seed=None)),
            submit(SPEC.to_dict(), name=[]),
            submit(SPEC.to_dict(), name=5),
            submit(SPEC.to_dict(), paused="no"),
            submit(dict(SPEC.to_dict(), budget_watts=math.nan)),
            submit(dict(SPEC.to_dict(), duration_s=math.inf)),
            submit(dict(SPEC.to_dict(), duration_s=10**400)),
            submit(
                dict(SPEC.to_dict(), trace=["piecewise", [[0, 2], [10, math.nan]]])
            ),
            json.dumps({"id": 1, "cmd": "unwatch", "args": {"run": 5}}),
            budget("1e400"),
            budget("NaN"),
            budget("-Infinity"),
            budget(str(10**400)),
        ]
        for line in hostile:
            answer = self._raw(path, line.encode() + b"\n")
            assert answer["ok"] is False, line[:80]
        with _client(path) as ctl:
            assert ctl.call("ping") == {"pong": True, "runs": 1}
            runs = ctl.call("status")["runs"]
            assert [(r["name"], r["paused"]) for r in runs] == [("held", True)]
            assert exactly(ctl.call("status", run="held")["budget_watts"], cap)
            audit = ctl.call("audit", run="held", kind="budget-change")
            assert audit["count"] == 0

    def test_nan_guard_spec_is_refused_and_the_daemon_keeps_serving(self, daemon):
        # Python's JSON decoder accepts the NaN token, so the spec check
        # is what stands between this block and a hosted run.
        _, path = daemon
        spec = dict(SPEC.to_dict(), guard={"demote_after": math.nan})
        answer = self._raw(
            path,
            json.dumps({"id": 7, "cmd": "submit", "args": {"spec": spec}}).encode()
            + b"\n",
        )
        assert answer["id"] == 7
        assert answer["ok"] is False
        assert answer["error"]["type"] == "ConfigurationError"
        assert "demote_after" in answer["error"]["message"]
        with _client(path) as ctl:
            assert ctl.call("ping") == {"pong": True, "runs": 0}

    def test_line_limit_applies_per_line_not_per_read(self, daemon):
        _, path = daemon

        def ping(request_id: int, size: int) -> bytes:
            # Whitespace pads a valid request to exactly ``size`` bytes.
            head = b'{"id": %d, "cmd": "ping"' % request_id
            return head + b" " * (size - len(head) - 1) + b"}"

        big = ping(1, MAX_LINE_BYTES - 97)  # just inside the limit
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(path)
            sock.sendall(big[:-5000])
            # Together the three lines outgrow the limit; each is inside it.
            sock.sendall(big[-5000:] + b"\n" + ping(2, 60_000) + b"\n")
            sock.sendall(ping(3, 30) + b"\n")
            replies = _read_lines(sock, 3)
            assert [(r["id"], r["ok"]) for r in replies] == [
                (1, True),
                (2, True),
                (3, True),
            ]
            sock.sendall(ping(4, 30) + b"\n")
            assert _read_lines(sock, 1)[0]["id"] == 4

    def test_unterminated_line_past_the_limit_drops_the_client(self, daemon):
        _, path = daemon
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(path)
            sock.sendall(b"{" + b" " * MAX_LINE_BYTES)
            (answer,) = _read_lines(sock, 1)
            assert answer["id"] is None
            assert "line limit" in answer["error"]["message"]
            assert sock.recv(65536) == b""  # the daemon hung up

    def test_shutdown_command_stops_the_loop(self, tmp_path):
        path = str(tmp_path / "reprod.sock")
        server = ReproDaemon(path, turbo=True, poll_interval_s=0.005)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        _await_ping(path)
        with _client(path) as ctl:
            assert ctl.call("shutdown") == {"stopping": True, "runs": 0}
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert not _exists(path)  # the socket file was unlinked

    def test_readiness_waits_out_the_gap_between_bind_and_listen(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "reprod.sock")
        bound = threading.Event()
        release = threading.Event()
        listen = socket.socket.listen

        def held_listen(sock, *args):
            bound.set()
            release.wait(timeout=5.0)
            return listen(sock, *args)

        monkeypatch.setattr(socket.socket, "listen", held_listen)
        server = ReproDaemon(path, turbo=True, poll_interval_s=0.005)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        timer = threading.Timer(0.2, release.set)
        thread.start()
        try:
            assert bound.wait(timeout=5.0)
            # The file is there, yet nobody listens: a connect is refused.
            assert _exists(path)
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                with pytest.raises(ConnectionRefusedError):
                    probe.connect(path)
            timer.start()
            _await_ping(path)
            with _client(path) as ctl:
                assert ctl.call("ping") == {"pong": True, "runs": 0}
        finally:
            timer.cancel()
            release.set()
            server.shutdown()
            thread.join(timeout=5.0)
        assert not thread.is_alive()


class TestTurboLoop:
    def test_live_run_advances_without_client_traffic(self, tmp_path):
        # A slow poll: a loop that slept between quanta would be only a
        # few quanta into the run when the status arrives.
        path = str(tmp_path / "reprod.sock")
        with _serving(path, quantum_s=1.0, poll_interval_s=0.5):
            with _client(path) as ctl:
                ctl.call("submit", spec=SPEC.to_dict(), name="solo")
                time.sleep(1.0)
                status = ctl.call("status", run="solo")
        assert status["result_ready"] is True
        assert exactly(status["now_s"], 30.0)

    def test_loop_blocks_only_when_no_run_can_advance(
        self, tmp_path, monkeypatch
    ):
        timeouts: list[float] = []

        class RecordingSelector(selectors.DefaultSelector):
            def select(self, timeout=None):
                timeouts.append(timeout)
                return super().select(timeout)

        monkeypatch.setattr(selectors, "DefaultSelector", RecordingSelector)
        poll = 0.05
        path = str(tmp_path / "reprod.sock")
        with _serving(path, quantum_s=1.0, poll_interval_s=poll):
            with _client(path) as ctl:
                ctl.call("submit", spec=SPEC.to_dict(), name="held", paused=True)
                ctl.call("watch", run="held")
                time.sleep(5 * poll)
                resumed_at = len(timeouts)
                ctl.call("resume", run="held")
                _await_finished(ctl, "held")
                time.sleep(5 * poll)
        seen = [(value, len(list(same))) for value, same in itertools.groupby(timeouts)]
        # Idle and paused, live for one quantum per iteration, finished.
        assert [value for value, _ in seen] == [poll, 0, poll]
        assert resumed_at <= seen[0][1]
        # The resume's own iteration advances the first of 30 quanta.
        assert seen[1][1] == 29


class TestConstruction:
    def test_daemon_needs_an_endpoint(self):
        with pytest.raises(ServeError, match="unix socket path or a TCP host"):
            ReproDaemon()

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, 0.0, -1.0],
        ids=["nan", "inf", "zero", "negative"],
    )
    @pytest.mark.parametrize(
        "option, word",
        [("rate", "rate"), ("quantum_s", "quantum"), ("poll_interval_s", "poll")],
    )
    def test_rate_and_quantum_must_be_positive(self, tmp_path, option, word, value):
        path = str(tmp_path / "s.sock")
        with pytest.raises(ServeError, match=word):
            ReproDaemon(path, **{option: value})

    def test_client_needs_an_endpoint(self):
        with pytest.raises(ServeError, match="unix socket path or a TCP host"):
            CtlClient()

    def test_failed_connect_closes_its_socket(self, tmp_path):
        client = CtlClient(str(tmp_path / "missing.sock"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            # The type callers retry on is kept.
            with pytest.raises(FileNotFoundError):
                client.connect()
            gc.collect()
        assert [w for w in caught if w.category is ResourceWarning] == []

    def test_ctl_without_a_daemon_prints_one_error_line(self, tmp_path, capsys):
        path = str(tmp_path / "missing.sock")
        assert main(["ctl", "--socket", path, "ping"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: cannot reach reprod at {path}: ")


def _read_lines(sock: socket.socket, count: int) -> list[dict]:
    """The next ``count`` reply lines on a raw connection."""
    buffer = b""
    while buffer.count(b"\n") < count:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError("the daemon hung up without a reply")
        buffer += chunk
    return [json.loads(line) for line in buffer.split(b"\n")[:count]]


def _await_finished(ctl: CtlClient, run: str) -> dict:
    for event in ctl.events():
        if event["event"] == "finished" and event["run"] == run:
            return event
    raise AssertionError(f"never saw the finished event for {run!r}")
