"""Checks of the performance benchmark itself.

Run with ``python3 -m pytest benchmarks/perf -q``.  The smoke runs use
every workload at about 2% of its simulated duration, daemon included,
so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import re

import pytest

import run
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMOKE_SCALE = 0.02


@pytest.fixture(scope="module")
def config():
    return run.load_config()


@pytest.fixture(scope="module")
def smoke_sets():
    """Two traced smoke sets of all four workloads."""
    return [
        run.run_set(3, 1, list(WORKLOADS), True, None, 0.0, scale=SMOKE_SCALE) for _ in range(2)
    ]


def test_benchmark_json_schema(config):
    bench, suite = config
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert 1 <= bench["run_seconds"] <= 60
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(metric["unit"]) and 0.0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.fullmatch(metric["unit"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert set(suite["workloads"]) == set(WORKLOADS)
    assert suite["seeds"] == {"default": 3, "held_out": 11}


def test_every_layer_metric_names_what_it_moves(config):
    bench, suite = config
    layer_names = [m["name"] for m in bench["per_layer"] + suite["per_layer"]]
    assert set(suite["moves"]) == set(layer_names)
    for name in layer_names:
        for move in suite["moves"][name]:
            workloads = move["workloads"]
            assert workloads and set(workloads) <= set(WORKLOADS), name
            for workload in workloads:
                known = {m["name"] for m in run.e2e_metrics(workload, bench, suite)}
                assert move["metric"] in known, (name, move)


def test_pinned_digests(config):
    _bench, suite = config
    for workload in WORKLOADS:
        for seed in ("3", "11"):
            assert re.fullmatch(r"[0-9a-f]{64}", suite["workloads"][workload]["digest"][seed])
    spec_pin = suite["workloads"]["headline-batch"]["spec_digest"]["3"]
    assert run.workloads.headline_spec(3).digest() == spec_pin
    assert spec_pin.startswith("c56a7398")


def test_smoke_reports_every_metric(config, smoke_sets):
    bench, suite = config
    result = smoke_sets[0]
    print()
    print(run.render_set(result))
    for workload in WORKLOADS:
        entry = result["workloads"][workload]
        assert entry["failed"] == 0, entry["errors"]
        for metric in run.e2e_metrics(workload, bench, suite):
            assert metric["name"] in entry["metrics"], (workload, metric["name"])
        assert entry["metrics"]["failed_frac"]["median"] == 0.0
        layer = result["layers"][workload]
        for metric in bench["per_layer"]:
            assert layer.get(metric["name"], 0) > 0, (workload, metric["name"])
        for metric in suite["per_layer"]:
            if workload in metric["workloads"]:
                # Scoped counts can read 0 at smoke length (one compaction
                # per few hundred simulated seconds); they must be reported.
                assert metric["name"] in layer, (workload, metric["name"])


def test_layer_counts_sum_and_repeat(smoke_sets):
    first, second = (s["layers"] for s in smoke_sets)
    for workload in WORKLOADS:
        layer = first[workload]
        assert layer["trace.hook_events"] == layer["sim.events"]
        by_layer = [
            v
            for k, v in layer.items()
            if k.endswith((".events", ".ticks", ".samples")) and k != "sim.events"
        ]
        assert sum(by_layer) == layer["sim.events"]
        self_total = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        assert self_total == pytest.approx(layer["trace.profile_total_s"], rel=0.05)
        counts = {
            k: v
            for k, v in layer.items()
            if k.endswith((".events", ".ticks", ".samples", ".actions", ".compactions", ".calls_in"))
        }
        assert counts == {k: second[workload].get(k) for k in counts}, workload


def test_tampered_digest_fails(monkeypatch, capsys):
    monkeypatch.setattr(run, "pinned", lambda *_args: ("0" * 64, None))
    code = run.one_workload("headline-batch", 3, 0.0, False, scale=SMOKE_SCALE)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    # A spent budget still takes one repeat, and no more.
    assert not result["correct"] and result["failed"] == result["attempted"] == 1
    result = run.run_set(3, 1, ["paper-grid"], False, None, 0.0, scale=SMOKE_SCALE)
    assert result["workloads"]["paper-grid"]["metrics"]["failed_frac"]["median"] > 0


def test_compare_verdicts(tmp_path):
    def metric_set(values):
        return {
            "workloads": {
                "headline-batch": {
                    "failed": 0,
                    "metrics": {"wall_s": {"unit": "s", **run.summarize(values)}},
                }
            }
        }

    base = metric_set([10.0, 10.1, 9.9, 10.0, 10.05])
    rows = run.compare_sets(base, metric_set([10.2, 10.3, 10.1, 10.2, 10.25]))
    assert [r["verdict"] for r in rows] == ["within"]
    rows = run.compare_sets(base, metric_set([14.0, 14.1, 13.9, 14.0, 14.05]))
    assert [r["verdict"] for r in rows] == ["worse"]
    noisy = metric_set([8.0, 12.0, 10.0, 14.0, 9.0])
    rows = run.compare_sets(base, noisy)
    assert [r["verdict"] for r in rows] == ["unresolved"]
    paths = {}
    for name, payload in (("base", base), ("noisy", noisy)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    assert run.main(["compare", str(paths["base"]), str(paths["base"])]) == 0
    assert run.main(["compare", str(paths["base"]), str(paths["noisy"])]) == 1
