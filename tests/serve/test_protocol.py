"""The line-delimited JSON control protocol: framing and validation."""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, ServeError
from repro.serve.protocol import (
    COMMANDS,
    MAX_LINE_BYTES,
    decode_message,
    decode_request,
    encode_event,
    encode_request,
    encode_response,
    validate_command,
)

#: Two short lines CPython's json module rejects with something other
#: than a JSONDecodeError: an integer past the 4,300-digit conversion
#: limit (ValueError) and arrays nested past the recursion limit.
HUGE_INT_LINE = '{"id": ' + "9" * 5000 + ', "cmd": "ping"}'
DEEP_NESTING_LINE = "[" * 100_000 + "]" * 100_000

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["id", "cmd", "args", "run", "x"]) | st.text(max_size=4),
        children,
        max_size=4,
    ),
    max_leaves=12,
)


class TestCommandTable:
    def test_every_command_validates_its_own_required_args(self):
        for cmd, (required, _optional) in COMMANDS.items():
            args = {name: "x" for name in required}
            validate_command(cmd, args)

    def test_unknown_command_rejected(self):
        with pytest.raises(ProtocolError, match="unknown command"):
            validate_command("reboot", {})

    def test_missing_required_argument_rejected(self):
        with pytest.raises(ProtocolError, match="missing argument"):
            validate_command("budget", {"run": "run0"})

    def test_unknown_argument_rejected(self):
        with pytest.raises(ProtocolError, match="does not take"):
            validate_command("ping", {"volume": 11})

    def test_optional_arguments_accepted(self):
        validate_command("audit", {"run": "run0", "kind": "budget-change"})
        validate_command("submit", {"spec": {}, "name": "ci", "paused": True})


class TestRequestFraming:
    def test_round_trip(self):
        line = encode_request(7, "budget", {"run": "run0", "watts": 6.78})
        request = decode_request(line)
        assert request.id == 7
        assert request.cmd == "budget"
        assert request.args == {"run": "run0", "watts": 6.78}

    def test_encode_refuses_invalid_commands(self):
        with pytest.raises(ProtocolError):
            encode_request(1, "reboot", {})
        with pytest.raises(ProtocolError):
            encode_request(1, "budget", {"run": "run0"})

    def test_non_json_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_request("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_request("[1, 2]")

    def test_id_must_be_an_integer(self):
        with pytest.raises(ProtocolError, match="integer 'id'"):
            decode_request(json.dumps({"id": "1", "cmd": "ping"}))
        with pytest.raises(ProtocolError, match="integer 'id'"):
            decode_request(json.dumps({"id": True, "cmd": "ping"}))
        with pytest.raises(ProtocolError, match="integer 'id'"):
            decode_request(json.dumps({"cmd": "ping"}))

    def test_cmd_must_be_a_string(self):
        with pytest.raises(ProtocolError, match="string 'cmd'"):
            decode_request(json.dumps({"id": 1, "cmd": 4}))

    def test_args_must_be_an_object(self):
        with pytest.raises(ProtocolError, match="'args' must be an object"):
            decode_request(json.dumps({"id": 1, "cmd": "ping", "args": [1]}))

    def test_unknown_top_level_keys_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request key"):
            decode_request(
                json.dumps({"id": 1, "cmd": "ping", "args": {}, "auth": "x"})
            )

    def test_missing_args_defaults_to_empty(self):
        request = decode_request(json.dumps({"id": 1, "cmd": "ping"}))
        assert request.args == {}

    @pytest.mark.parametrize(
        "line", [HUGE_INT_LINE, DEEP_NESTING_LINE], ids=["huge-int", "deep"]
    )
    def test_lines_json_rejects_without_decode_error(self, line):
        assert len(line) < MAX_LINE_BYTES
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_request(line)

    def test_oversized_line_rejected(self):
        padding = "x" * MAX_LINE_BYTES
        line = json.dumps({"id": 1, "cmd": "ping", "args": {"pad": padding}})
        with pytest.raises(ProtocolError, match="byte limit"):
            decode_request(line)


class TestResponseFraming:
    def test_result_response(self):
        line = encode_response(3, result={"pong": True})
        payload = json.loads(line)
        assert payload == {"id": 3, "ok": True, "result": {"pong": True}}

    def test_error_response_carries_type_and_message(self):
        line = encode_response(4, error=ServeError("no such run"))
        payload = json.loads(line)
        assert payload["ok"] is False
        assert payload["error"] == {
            "type": "ServeError",
            "message": "no such run",
        }

    def test_unparseable_request_answers_with_null_id(self):
        payload = json.loads(encode_response(None, error=ProtocolError("bad")))
        assert payload["id"] is None

    def test_exactly_one_of_result_or_error(self):
        with pytest.raises(ProtocolError):
            encode_response(1)
        with pytest.raises(ProtocolError):
            encode_response(1, result={}, error=ServeError("x"))

    def test_responses_are_single_lines(self):
        assert "\n" not in encode_response(1, result={"a": "b\nc"})


class TestEventFraming:
    def test_event_round_trip(self):
        line = encode_event("snapshot", "run0", {"line": "{}"})
        message = decode_message(line)
        assert message == {"event": "snapshot", "run": "run0", "data": {"line": "{}"}}

    def test_decode_message_accepts_responses_and_events(self):
        assert "id" in decode_message(encode_response(1, result={}))
        assert "event" in decode_message(encode_event("finished", "r", {}))

    def test_decode_message_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            decode_message("}{")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_message("42")
        with pytest.raises(ProtocolError, match="neither"):
            decode_message(json.dumps({"hello": "world"}))

    @pytest.mark.parametrize(
        "line", [HUGE_INT_LINE, DEEP_NESTING_LINE], ids=["huge-int", "deep"]
    )
    def test_decode_message_rejects_lines_json_cannot_convert(self, line):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            decode_message(line)


def _decodes_or_rejects(line: str) -> None:
    try:
        request = decode_request(line)
    except ProtocolError:
        return
    assert request.cmd in COMMANDS


class TestHostileInput:
    """Whatever a client sends, decoding yields a Request or a
    ProtocolError — nothing else may escape into the serve loop."""

    @settings(max_examples=200, deadline=None)
    @given(st.text())
    @example(HUGE_INT_LINE)
    @example(DEEP_NESTING_LINE)
    def test_arbitrary_text(self, line):
        _decodes_or_rejects(line)

    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_arbitrary_json_values(self, value):
        _decodes_or_rejects(json.dumps(value))
