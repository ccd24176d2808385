"""Unit tests for the flow-analysis engine itself (CFG, dataflow,
call graph) — the machinery under the PR-8 rule families."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

from repro.lint.callgraph import build_call_graph, summarize_module
from repro.lint.cfg import Header, build_cfg, function_defs
from repro.lint.dataflow import (
    DataflowDiverged,
    ForwardAnalysis,
    run_forward,
)
from repro.lint.source import SourceModule


def parse_func(text: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(text))
    defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    return defs[0]


def make_module(tmp_path: Path, package_path: str, text: str) -> SourceModule:
    target = tmp_path / package_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(text), encoding="utf-8")
    return SourceModule.parse(target, package_path)


class TestCfg:
    def test_straight_line_is_one_block(self):
        func = parse_func(
            """\
            def f(x):
                y = x + 1
                return y
            """
        )
        cfg = build_cfg(func)
        reachable = [b for b in cfg.blocks if cfg.preds.get(b.index) or b.index == cfg.entry]
        bodies = [b for b in reachable if b.items]
        assert len(bodies) == 1
        assert len(bodies[0].items) == 2

    def test_if_fans_out_and_merges(self):
        func = parse_func(
            """\
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        cfg = build_cfg(func)
        entry_succs = cfg.succs[cfg.entry]
        assert len(entry_succs) == 2  # then / else branches
        # Both branches converge on the return block.
        merge_targets = {
            target for source in entry_succs for target in cfg.succs[source]
        }
        assert len(merge_targets) == 1

    def test_early_return_edges_to_exit(self):
        func = parse_func(
            """\
            def f(x):
                if x:
                    return 1
                return 2
            """
        )
        cfg = build_cfg(func)
        assert len(cfg.normal_exit_preds()) == 2

    def test_raise_blocks_are_not_normal_exits(self):
        func = parse_func(
            """\
            def f(x):
                if x:
                    raise ValueError(x)
                return 2
            """
        )
        cfg = build_cfg(func)
        normal = cfg.normal_exit_preds()
        assert len(normal) == 1
        raising = [b for b in cfg.blocks if b.raises]
        assert len(raising) == 1

    def test_loop_has_back_edge(self):
        func = parse_func(
            """\
            def f(items):
                total = 0
                for item in items:
                    total += item
                return total
            """
        )
        cfg = build_cfg(func)
        back_edges = [
            (source, target)
            for source, targets in cfg.succs.items()
            for target in targets
            if target <= source and target != cfg.exit
        ]
        assert back_edges, "loop produced no back edge"

    def test_try_body_edges_into_handler(self):
        func = parse_func(
            """\
            def f(x):
                try:
                    risky(x)
                except ValueError:
                    return None
                return x
            """
        )
        cfg = build_cfg(func)
        headers = [
            item
            for block in cfg.blocks
            for item in block.items
            if isinstance(item, Header) and isinstance(item.node, ast.Try)
        ]
        assert headers
        assert len(cfg.normal_exit_preds()) == 2

    def test_function_defs_qualifies_methods(self):
        tree = ast.parse(
            textwrap.dedent(
                """\
                def top():
                    pass


                class Box:
                    def method(self):
                        pass
                """
            )
        )
        names = [qualname for qualname, _ in function_defs(tree)]
        assert names == ["top", "Box.method"]


class _Reaching(ForwardAnalysis):
    """Tiny test analysis: the set of assigned names so far."""

    def initial(self, cfg):
        return frozenset()

    def join(self, left, right):
        return left | right

    def transfer(self, item, state):
        node = item.node if isinstance(item, Header) else item
        if isinstance(node, ast.Assign):
            names = {
                t.id for t in node.targets if isinstance(t, ast.Name)
            }
            return state | names
        return state


class TestDataflow:
    def test_joins_union_across_branches(self):
        func = parse_func(
            """\
            def f(x):
                if x:
                    a = 1
                else:
                    b = 2
                return 0
            """
        )
        cfg = build_cfg(func)
        ins = run_forward(cfg, _Reaching())
        exit_preds = cfg.normal_exit_preds()
        assert len(exit_preds) == 1
        assert ins[exit_preds[0].index] == frozenset({"a", "b"})

    def test_loop_reaches_fixpoint(self):
        func = parse_func(
            """\
            def f(items):
                while cond():
                    a = 1
                return 0
            """
        )
        cfg = build_cfg(func)
        ins = run_forward(cfg, _Reaching())  # must terminate
        assert any("a" in state for state in ins.values())

    def test_observe_runs_in_block_order(self):
        seen = []

        class Observing(_Reaching):
            def observe(self, item, state):
                node = item.node if isinstance(item, Header) else item
                seen.append(getattr(node, "lineno", -1))

        func = parse_func(
            """\
            def f(x):
                a = 1
                if x:
                    b = 2
                return a
            """
        )
        run_forward(build_cfg(func), Observing())
        assert seen == sorted(seen)

    def test_divergent_analysis_crashes_loudly(self):
        class Diverging(_Reaching):
            def __init__(self):
                self.n = 0

            def transfer(self, item, state):
                self.n += 1
                return frozenset({f"tick-{self.n}"})

        func = parse_func(
            """\
            def f(items):
                while cond():
                    a = 1
                return 0
            """
        )
        with pytest.raises(DataflowDiverged):
            run_forward(build_cfg(func), Diverging())


class TestCallGraph:
    def test_summaries_and_resolution(self, tmp_path):
        util = make_module(
            tmp_path,
            "util/helper.py",
            """\
            import random


            def draw():
                return random.random()
            """,
        )
        user = make_module(
            tmp_path,
            "sim/user.py",
            """\
            from repro.util.helper import draw


            def pick():
                return draw()
            """,
        )
        graph = build_call_graph([util, user])
        summary = graph.functions["sim/user.py::pick"]
        callee = graph.resolve(summary, summary.calls[0].target)
        assert callee is not None
        assert callee.key == "util/helper.py::draw"

    def test_trace_finds_transitive_target(self, tmp_path):
        module = make_module(
            tmp_path,
            "util/chain.py",
            """\
            import random


            def a():
                return b()


            def b():
                return c()


            def c():
                return random.random()
            """,
        )
        graph = build_call_graph([module])
        chain = graph.trace(
            "util/chain.py::a",
            lambda site: site.target.startswith("random."),
        )
        assert chain is not None
        owners = [owner for owner, _ in chain]
        assert owners == [
            "util/chain.py::a",
            "util/chain.py::b",
            "util/chain.py::c",
        ]
        assert chain[-1][1].target == "random.random"

    def test_cycles_do_not_hang(self, tmp_path):
        module = make_module(
            tmp_path,
            "util/cycle.py",
            """\
            def ping():
                return pong()


            def pong():
                return ping()
            """,
        )
        graph = build_call_graph([module])
        assert graph.trace("util/cycle.py::ping", lambda site: False) is None

    def test_summarize_module_records_sites(self, tmp_path):
        module = make_module(
            tmp_path,
            "util/sites.py",
            """\
            import heapq


            def push(heap, item):
                heapq.heappush(heap, item)
            """,
        )
        summaries = summarize_module(module)
        assert [s.qualname for s in summaries] == ["push"]
        assert summaries[0].calls[0].target == "heapq.heappush"
