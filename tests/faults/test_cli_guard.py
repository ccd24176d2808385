"""CLI surface of the goodput gate and the ``repro guard`` command."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.units import exactly


class _StubReport:
    """Duck-types the two attributes the goodput gate reads."""

    def __init__(self, goodput_fraction: float) -> None:
        self.goodput_fraction = goodput_fraction

    def render(self, baseline) -> str:
        return "stub report"


def _stub_chaos(goodput_fraction: float, baseline_fraction: float = 1.0):
    """What the CLI's runner hands the goodput gate: the chaos run's
    report and its fault-free twin's result."""
    return SimpleNamespace(
        report=_StubReport(goodput_fraction),
        baseline=SimpleNamespace(completion_fraction=baseline_fraction),
    )


def _arm_stub(monkeypatch, chaos_result):
    calls = []

    def fake_run(*args, **kwargs):
        calls.append((args, kwargs))
        return chaos_result

    monkeypatch.setattr(repro.cli, "_run_spec", fake_run)
    return calls


class TestGoodputGate:
    def test_gate_needs_the_baseline(self, capsys):
        code = main(
            [
                "chaos",
                "sirius",
                "--fail-on-goodput-delta",
                "5",
                "--no-baseline",
            ]
        )
        assert code == 1
        assert "drop --no-baseline" in capsys.readouterr().err

    def test_gate_rejects_non_positive_thresholds(self):
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(
                ["chaos", "sirius", "--fail-on-goodput-delta", "0"]
            )
        assert excinfo.value.code == 2

    def test_delta_within_the_gate_passes(self, monkeypatch, capsys):
        calls = _arm_stub(monkeypatch, _stub_chaos(goodput_fraction=0.98))
        code = main(
            ["chaos", "sirius", "--fail-on-goodput-delta", "5"]
        )
        captured = capsys.readouterr()
        assert code == 0
        # The runner got the chaos spec and its fault-free twin.
        (spec, twin), _ = calls[0]
        assert spec.chaos is not None and spec.drain_s > 0.0
        assert twin.chaos is None and exactly(twin.drain_s, 0.0)
        assert (twin.app, twin.trace, twin.seed) == (spec.app, spec.trace, spec.seed)
        assert "goodput delta vs baseline: +2.00% (gate: 5.00%)" in captured.out
        assert "breached" not in captured.err

    def test_delta_past_the_gate_exits_nonzero(self, monkeypatch, capsys):
        _arm_stub(monkeypatch, _stub_chaos(goodput_fraction=0.80))
        code = main(
            ["chaos", "sirius", "--fail-on-goodput-delta", "5"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "goodput gate breached" in captured.err
        assert "20.00%" in captured.err

    def test_empty_baseline_is_an_explicit_error(self, monkeypatch, capsys):
        _arm_stub(
            monkeypatch,
            _stub_chaos(goodput_fraction=0.0, baseline_fraction=0.0),
        )
        code = main(
            ["chaos", "sirius", "--fail-on-goodput-delta", "5"]
        )
        assert code == 1
        assert "baseline completed no queries" in capsys.readouterr().err


class TestGuardCommand:
    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--slo-target", "0"),
            ("--demote-after", "0"),
            ("--probation", "-1"),
            ("--storm-ticks", "0"),
        ],
    )
    def test_bad_knobs_rejected_at_parse_time(self, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["guard", "sirius", flag, value])
        assert excinfo.value.code == 2

    def test_smoke_run_writes_the_guard_payload(self, tmp_path, capsys):
        out = tmp_path / "guard.json"
        code = main(
            [
                "guard",
                "sirius",
                "--rate",
                "2",
                "--duration",
                "40",
                "--no-baseline",
                "--json",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "supervised (ladder conserve,safe" in captured.out
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["app"] == "sirius"
        assert payload["plan"]["name"] == "telemetry-dark"
        guard = payload["report"]["guard"]
        assert guard["modes"] == ["powerchief", "conserve", "safe"]
        assert guard["final_mode"] in guard["modes"]
        assert "safe_mode_engaged" in guard
        assert "recovered" in guard
