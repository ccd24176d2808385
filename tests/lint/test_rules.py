"""The determinism rules: four AST checks over every tree of the repo.

Every Section 8 number this reproduction reports is pinned byte for byte
by goldens and by a result cache keyed on spec digests.  That holds only
while the simulated world never reads the host clock, the global random
stream or a set's iteration order, and while stacks come from
``StackBuilder`` alone.  This module parses each ``.py`` file under
``src``, ``tests``, ``examples`` and ``benchmarks`` once and runs the
four rules below on it.  Every rule is one pass over one module's AST
and decides from that module alone; import aliases are resolved
(``from time import perf_counter as tick`` still reads the clock).
Scopes are repo-relative path prefixes (:data:`RULES`).

``wall-clock`` — ``src/repro/{sim,core,service}/``
    The simulated world has one clock, ``Simulator.now``.  A
    ``time.time()``, ``time.monotonic()`` or ``datetime.now()`` call
    inside it makes two runs of one seed diverge and the result cache
    lie.  Timing the host (benchmarks, the campaign's elapsed seconds)
    is legitimate and lives outside the scope.

``unseeded-random`` — every file
    Randomness routes through the named streams of ``sim/rng.py``,
    derived from the experiment's master seed.  Module-level
    ``random.*`` and ``numpy.random.*`` calls draw from process-global
    state, and an owned generator (``random.Random()``,
    ``numpy.random.default_rng()``) built without a seed fires too.  A
    helper anywhere can be called from the simulation, so the draw is
    flagged where it happens: that is where a seeded stream belongs.

``unordered-iteration`` — ``src/repro/{sim,core,service,faults,scenario}/``
    Set order depends on insertion history and, for ``str`` keys, on
    the hash seed.  Once it feeds ``Simulator.schedule``, a heap or an
    RNG draw, the event sequence diverges.  The rule does not read the
    loop body: it flags every ``for`` loop and comprehension whose
    iterable is set-valued — a set display or comprehension, a
    ``set()`` or ``frozenset()`` call, a set operator or set method
    applied to one, or a local or parameter bound to or annotated as a
    set.  Iterate ``sorted(...)`` instead.

``scenario-bypass`` — every file except ``src/repro/scenario/`` and ``tests/``
    ``StackBuilder`` is the only place a stack is assembled.  Building a
    ``Machine``, ``PowerBudget`` or ``CommandCenter`` anywhere else
    bypasses the staged lifecycle (observability, chaos installation,
    drain ordering) and the ``ScenarioSpec.digest()`` the cache keys
    on.  Only repro's own classes fire: ``somelib.Machine()`` is someone
    else's.  Tests build partial stacks on purpose.  A file that must
    assemble by hand is listed in :data:`EXEMPT` with its reason.

Hazards that a mutation audit showed the suite or a runtime check
already catches have no rule here: ``MetricsRegistry`` refuses a metric
name off ``^repro_[a-z][a-z0-9_]*$`` and a conflicting kind or help
text (a name computed from a label value passes it, and the pinned
Prometheus digests catch that); the ``repro.units`` types are checked
by ``mypy --strict``; a lambda submitted to the campaign pool shows as
a ``retry`` cell; an unfrozen spec cannot be hashed; mutable defaults
are ruff's ``B006`` and ``@dataclass``'s own refusal.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The scanned trees and the fewest files each must yield, so a wrong
#: root cannot pass by scanning nothing.
TREES = {"src": 51, "tests": 51, "examples": 3, "benchmarks": 21}

#: (path, rule) -> why that file may break that rule.  An entry that
#: exempts nothing fails the scan, so none outlives its cause.
EXEMPT = {
    ("examples/custom_pipeline.py", "scenario-bypass"): (
        "demonstrating the low-level API (no scenario layer) is the point "
        "of this example, so the staged-assembly bypass is intentional"
    ),
    ("benchmarks/bench_table1_metrics.py", "scenario-bypass"): (
        "the bursty two-stage pipeline runs on test profiles that no "
        "scenario spec can name, so this bench assembles its stack by hand"
    ),
}


class Finding(NamedTuple):
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


class Module(NamedTuple):
    """One parsed file, with every node in ``ast.walk`` order (walked
    once for all the rules) and its import origins."""

    tree: ast.Module
    nodes: tuple[ast.AST, ...]
    origins: dict[str, str]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def import_origins(nodes: Iterable[ast.AST]) -> dict[str, str]:
    """Map local names to the dotted origin they were imported as.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import time
    as now`` maps ``now -> time.time``.  Top-level and function-local
    imports both count.
    """
    origins: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origins[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                origins[local] = f"{node.module}.{alias.name}"
    return origins


def call_targets(module: Module) -> Iterator[tuple[ast.Call, str]]:
    """Every call whose callee is a dotted name, with its import-resolved
    target: ``np.random.rand()`` -> ``numpy.random.rand``."""
    for node in module.nodes:
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        head, _, rest = name.partition(".")
        origin = module.origins.get(head)
        if origin is None:
            yield node, name
        else:
            yield node, f"{origin}.{rest}" if rest else origin


#: Call targets that read the host clock.
_WALL_CLOCK_TARGETS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


def wall_clock(module: Module) -> Iterator[tuple[ast.AST, str]]:
    for call, target in call_targets(module):
        if target in _WALL_CLOCK_TARGETS:
            yield call, (
                f"call to {target}() reads the host clock inside the "
                f"simulated world"
            )


#: Module-level functions under these draw from the global, unseeded
#: stream (seeding it globally is just as bad: it is shared state).
_GLOBAL_RANDOM_PREFIXES = ("random.", "numpy.random.")

#: Owned generators under those prefixes: fine when given a seed.
_GENERATOR_CONSTRUCTORS = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.Generator"}
)


def unseeded_random(module: Module) -> Iterator[tuple[ast.AST, str]]:
    for call, target in call_targets(module):
        if target in _GENERATOR_CONSTRUCTORS:
            if not call.args and not call.keywords:
                yield call, f"{target}() constructed without a seed"
        elif target.startswith(_GLOBAL_RANDOM_PREFIXES):
            yield call, f"call to {target}() uses the process-global random stream"


#: Annotation heads that declare a set.
_SET_TYPES = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet"})
_SET_METHODS = frozenset({"union", "intersection", "difference", "symmetric_difference"})
_SET_OPERATORS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_set_annotation(node: Optional[ast.expr]) -> bool:
    if isinstance(node, ast.Subscript):
        node = node.value
    name = dotted_name(node) if node is not None else None
    return name is not None and name.rsplit(".", 1)[-1] in _SET_TYPES


def _is_set(node: ast.expr, names: set[str]) -> bool:
    """Whether ``node`` is confidently set-valued."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPERATORS):
        return _is_set(node.left, names) or _is_set(node.right, names)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("set", "frozenset")
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return _is_set(func.value, names)
    return False


def _own_nodes(scope: ast.AST) -> list[ast.AST]:
    """The nodes of ``scope``, not descending into nested scopes."""
    nodes: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        nodes.append(node := stack.pop())
        if not isinstance(node, _SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(node))
    return nodes


def _set_names(scope: ast.AST, nodes: list[ast.AST]) -> set[str]:
    """Locals and parameters bound to, or annotated as, a set."""
    args = getattr(scope, "args", None)
    params = (
        [*args.posonlyargs, *args.args, *args.kwonlyargs]
        if isinstance(args, ast.arguments)
        else []
    )
    names = {arg.arg for arg in params if _is_set_annotation(arg.annotation)}
    bindings: list[tuple[str, ast.expr]] = []
    for node in nodes:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if _is_set_annotation(node.annotation):
                names.add(node.target.id)
            elif node.value is not None:
                bindings.append((node.target.id, node.value))
        elif isinstance(node, ast.Assign):
            bindings += [(t.id, node.value) for t in node.targets if isinstance(t, ast.Name)]
    while True:  # a name bound from another set-bound name is a set too
        fresh = {name for name, value in bindings if _is_set(value, names)} - names
        if not fresh:
            return names
        names |= fresh


def unordered_iteration(module: Module) -> Iterator[tuple[ast.AST, str]]:
    for scope in [module.tree, *(n for n in module.nodes if isinstance(n, _SCOPE_NODES))]:
        nodes = _own_nodes(scope)
        names = _set_names(scope, nodes)
        for node in nodes:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables = [node.iter]
            elif isinstance(node, _COMPREHENSIONS):
                iterables = [generator.iter for generator in node.generators]
            else:
                continue
            if any(_is_set(iterable, names) for iterable in iterables):
                yield node, (
                    "iterating an unordered set: its order depends on "
                    "insertion history and hash seeds"
                )


#: Class names whose direct construction means "assembling a stack".
_STACK_CLASSES = frozenset({"Machine", "PowerBudget", "CommandCenter"})


def scenario_bypass(module: Module) -> Iterator[tuple[ast.AST, str]]:
    for call, target in call_targets(module):
        head, _, last = target.rpartition(".")
        # Only our classes: a bare local name (imported or defined here)
        # or anything rooted in the repro package.
        if last in _STACK_CLASSES and (not head or target.startswith("repro")):
            yield call, (
                f"direct {last}() construction bypasses the scenario "
                f"layer's staged assembly"
            )


Rule = Callable[[Module], Iterator[tuple[ast.AST, str]]]
_SIM = ("src/repro/sim/", "src/repro/core/", "src/repro/service/")

#: rule id -> (check, path prefixes it covers, path prefixes it skips).
#: Paths are repo-relative; the prefix ``""`` covers every file.
RULES: dict[str, tuple[Rule, tuple[str, ...], tuple[str, ...]]] = {
    "wall-clock": (wall_clock, _SIM, ()),
    "unseeded-random": (unseeded_random, ("",), ()),
    "unordered-iteration": (
        unordered_iteration,
        (*_SIM, "src/repro/faults/", "src/repro/scenario/"),
        (),
    ),
    "scenario-bypass": (scenario_bypass, ("",), ("src/repro/scenario/", "tests/")),
}


def scan(path: str, text: str) -> list[Finding]:
    """The findings of every rule whose scope covers ``path``, in line
    order.  Unparsable source raises :class:`SyntaxError`."""
    tree = ast.parse(text, filename=path)
    nodes = tuple(ast.walk(tree))
    module = Module(tree, nodes, import_origins(nodes))
    return sorted(
        Finding(path, node.lineno, rule, message)
        for rule, (check, covers, skips) in RULES.items()
        if path.startswith(covers) and not path.startswith(skips)
        for node, message in check(module)
    )


def unexempted(found: Iterable[Finding]) -> list[Finding]:
    """The findings that no :data:`EXEMPT` entry covers."""
    return [f for f in found if (f.path, f.rule) not in EXEMPT]


@pytest.fixture(scope="module")
def tree_scan() -> tuple[dict[str, int], list[Finding]]:
    """Files per tree, and every finding over the four trees."""
    counts: dict[str, int] = {}
    found: list[Finding] = []
    for tree in TREES:
        files = sorted((REPO_ROOT / tree).rglob("*.py"))
        counts[tree] = len(files)
        for file in files:
            path = file.relative_to(REPO_ROOT).as_posix()
            found += scan(path, file.read_text(encoding="utf-8"))
    return counts, found


class TestTree:
    @pytest.mark.parametrize("tree", sorted(TREES))
    def test_tree_yields_files(self, tree_scan, tree):
        counts, _ = tree_scan
        assert counts[tree] >= TREES[tree], (
            f"{tree}/ yielded {counts[tree]} files, fewer than {TREES[tree]}"
        )

    @pytest.mark.parametrize("tree", sorted(TREES))
    def test_no_finding_outside_the_exemption_table(self, tree_scan, tree):
        _, found = tree_scan
        live = unexempted(f for f in found if f.path.startswith(f"{tree}/"))
        if live:
            listing = "\n".join(map(str, live))
            pytest.fail(f"determinism rules found violations:\n{listing}")

    def test_every_exemption_exempts_something(self, tree_scan):
        _, found = tree_scan
        stale = sorted(set(EXEMPT) - {(f.path, f.rule) for f in found})
        assert not stale, f"exemptions that exempt nothing: {stale}"

    def test_an_exemption_covers_one_rule_in_one_file(self):
        covered = Finding("examples/custom_pipeline.py", 58, "scenario-bypass", "")
        other_rule = covered._replace(rule="unseeded-random")
        other_file = covered._replace(path="examples/quickstart.py")
        assert unexempted([covered, other_rule, other_file]) == [other_rule, other_file]


#: One module that breaks all four rules, one line each, in this order:
#: wall-clock, unordered-iteration, unseeded-random, scenario-bypass.
BREAKS_ALL_FOUR = """\
import random
import time

from repro.cluster import Machine


def assemble(stages):
    started = time.time()
    for stage in set(stages):
        stage.crash(random.random())
    return Machine(None, n_cores=4), started
"""

_EVERY_RULE = ("wall-clock", "unordered-iteration", "unseeded-random", "scenario-bypass")
_UNSCOPED = ("unseeded-random", "scenario-bypass")

#: Repo-relative path -> the rules that fire on :data:`BREAKS_ALL_FOUR`
#: there, so a rule whose scope narrows or widens fails its own case.
SCOPES = {
    "src/repro/sim/engine.py": _EVERY_RULE,
    "src/repro/sim/queues/fifo.py": _EVERY_RULE,
    "src/repro/core/controller.py": _EVERY_RULE,
    "src/repro/service/stage.py": _EVERY_RULE,
    "src/repro/faults/monitor.py": _EVERY_RULE[1:],
    "src/repro/scenario/builder.py": ("unordered-iteration", "unseeded-random"),
    "src/repro/cluster/budget.py": _UNSCOPED,
    "src/repro/serve/hosted.py": _UNSCOPED,
    "src/repro/simulation.py": _UNSCOPED,
    "src/repro/cli.py": _UNSCOPED,
    "tests/sim/test_engine.py": ("unseeded-random",),
    "examples/quickstart.py": _UNSCOPED,
    "benchmarks/perf/run.py": _UNSCOPED,
}


class TestScopes:
    @pytest.mark.parametrize("path", sorted(SCOPES))
    def test_each_rule_fires_exactly_in_its_scope(self, path):
        assert [f.rule for f in scan(path, BREAKS_ALL_FOUR)] == list(SCOPES[path])


#: The one-edit mutants of the rule audits, applied to the real files
#: they target: name -> (path, (old, new) edits, and the rule and
#: stripped source line of each finding the mutant must raise).  An
#: empty ``old`` makes a new file.
AUDIT_MUTANTS = {
    "UI-1": (
        "src/repro/core/withdraw.py",
        (
            (
                "for stage in application.stages:\n",
                "for stage in {s for s in application.stages}:\n",
            ),
        ),
        (("unordered-iteration", "for stage in {s for s in application.stages}:"),),
    ),
    "UI-2": (
        "src/repro/faults/monitor.py",
        (
            (
                "for stage in self.application.stages:\n",
                "for stage in set(self.application.stages):\n",
            ),
        ),
        (("unordered-iteration", "for stage in set(self.application.stages):"),),
    ),
    "RE-1": (
        "src/repro/util/tiebreak.py",
        (
            (
                "",
                "import random\n\n\ndef tie_break(candidates):\n"
                "    return max(candidates, key=lambda c: (c.score, random.random()))\n",
            ),
        ),
        (
            (
                "unseeded-random",
                "return max(candidates, key=lambda c: (c.score, random.random()))",
            ),
        ),
    ),
    "RE-2": (
        "src/repro/workloads/pick.py",
        (
            (
                "",
                "import random\n\n\ndef pick_victim(instances):\n"
                "    return instances[random.randrange(len(instances))]\n",
            ),
        ),
        (("unseeded-random", "return instances[random.randrange(len(instances))]"),),
    ),
    "WC-1": (
        "src/repro/sim/engine.py",
        (
            ("from heapq import", "from time import monotonic\nfrom heapq import"),
            (
                "        processed = 0\n",
                "        processed = 0\n        wall_deadline = monotonic() + 3600.0\n",
            ),
            (
                "            while queue:\n",
                "            while queue and monotonic() < wall_deadline:\n",
            ),
        ),
        (
            ("wall-clock", "wall_deadline = monotonic() + 3600.0"),
            ("wall-clock", "while queue and monotonic() < wall_deadline:"),
        ),
    ),
    "WC-2": (
        "src/repro/core/controller.py",
        (
            ("import math\n", "import math\nimport time\n"),
            (
                "    def _tick(self, now: float) -> None:\n        self.adjust(now)\n",
                "    def _tick(self, now: float) -> None:\n"
                "        started = time.perf_counter()\n"
                "        self.adjust(now)\n"
                "        if time.perf_counter() - started > 1.0:\n"
                '            self._skip("tick overran its host-time budget")\n',
            ),
        ),
        (
            ("wall-clock", "started = time.perf_counter()"),
            ("wall-clock", "if time.perf_counter() - started > 1.0:"),
        ),
    ),
    "SB-1": (
        "benchmarks/bench_scalability_sharding.py",
        (
            (
                "from repro.core.bottleneck import BottleneckIdentifier\n",
                "from repro.core.bottleneck import BottleneckIdentifier\n"
                "from repro.service.command_center import CommandCenter\n",
            ),
            (
                "BottleneckIdentifier(builder.command_center)",
                "BottleneckIdentifier(CommandCenter(builder.sim, builder.application))",
            ),
        ),
        (
            (
                "scenario-bypass",
                "identifier = BottleneckIdentifier("
                "CommandCenter(builder.sim, builder.application))",
            ),
        ),
    ),
    "SB-2": (
        "benchmarks/bench_table4_comparison.py",
        (
            (
                "from repro.cluster.frequency import HASWELL_LADDER\n",
                "from repro.cluster.budget import PowerBudget\n"
                "from repro.cluster.frequency import HASWELL_LADDER\n",
            ),
            (
                "    budget.assert_within()\n",
                "    PowerBudget(app.machine, budget.budget_watts).assert_within()\n",
            ),
        ),
        (("scenario-bypass", "PowerBudget(app.machine, budget.budget_watts).assert_within()"),),
    ),
    "SB-3": (
        "src/repro/serve/hosted.py",
        (
            (
                "from repro.errors import ServeError\n",
                "from repro.cluster.budget import PowerBudget\n"
                "from repro.errors import ServeError\n",
            ),
            (
                'payload["draw_watts"] = float(budget.draw())',
                'payload["draw_watts"] = float('
                "PowerBudget(budget.machine, budget.budget_watts).draw())",
            ),
        ),
        (
            (
                "scenario-bypass",
                'payload["draw_watts"] = float('
                "PowerBudget(budget.machine, budget.budget_watts).draw())",
            ),
        ),
    ),
}


class TestAuditMutants:
    @pytest.mark.parametrize("name", sorted(AUDIT_MUTANTS))
    def test_mutant_is_caught(self, name):
        path, edits, expected = AUDIT_MUTANTS[name]
        file = REPO_ROOT / path
        text = file.read_text(encoding="utf-8") if file.exists() else ""
        for old, new in edits:
            if not old:
                assert not text, f"{name}: {path} already exists"
                text = new
                continue
            assert text.count(old) == 1, (
                f"{name}: {path} no longer holds {old!r} exactly once; "
                f"re-anchor the mutant"
            )
            text = text.replace(old, new)
        lines = text.splitlines()
        found = [(f.rule, lines[f.line - 1].strip()) for f in scan(path, text)]
        assert found == list(expected)


def findings(files: dict[str, str]) -> list[Finding]:
    """Scan corpus sources keyed by repo-relative path, in path order."""
    return [
        finding
        for path, source in sorted(files.items())
        for finding in scan(path, textwrap.dedent(source))
    ]


def fired(path: str, source: str) -> list[tuple[str, int]]:
    """(rule, line) pairs of one corpus file, in line order."""
    return [(finding.rule, finding.line) for finding in findings({path: source})]


class TestParseError:
    def test_unparsable_file_fails_the_scan(self):
        with pytest.raises(SyntaxError):
            scan("src/repro/sim/broken.py", "def f(:\n")


class TestWallClock:
    def test_fires_on_host_clock_reads(self):
        found = findings(
            {
                "src/repro/sim/bad.py": """\
                import time
                import datetime


                def stamp() -> float:
                    return time.time()


                def when():
                    return datetime.datetime.now()
                """
            }
        )
        assert [(f.rule, f.line) for f in found] == [("wall-clock", 6), ("wall-clock", 10)]
        assert "host clock" in found[0].message

    def test_out_of_scope_directories_are_exempt(self):
        source = """\
        import time


        def stamp() -> float:
            return time.time()
        """
        assert fired("src/repro/experiments/timing.py", source) == []

    def test_import_alias_is_resolved(self):
        source = """\
        from time import perf_counter as tick


        def stamp() -> float:
            return tick()
        """
        assert fired("src/repro/core/bad.py", source) == [("wall-clock", 5)]

    def test_default_argument_anchors_at_the_def(self):
        source = """\
        import functools
        import time


        @functools.lru_cache(maxsize=None)
        def stamp(at=time.time()):
            return at
        """
        assert fired("src/repro/sim/a.py", source) == [("wall-clock", 6)]

    def test_multiline_statement_anchors_at_the_call(self):
        source = """\
        import time


        def stamp(offset_s):
            total = time.time() + (
                offset_s
            )
            return total
        """
        assert fired("src/repro/core/a.py", source) == [("wall-clock", 5)]


class TestUnseededRandom:
    def test_fires_on_global_stream_and_unseeded_generator(self):
        source = """\
        import random


        def jitter() -> float:
            return random.random()


        def make_rng():
            return random.Random()
        """
        assert fired("src/repro/service/bad.py", source) == [
            ("unseeded-random", 5),
            ("unseeded-random", 9),
        ]

    def test_seeded_generator_is_allowed(self):
        source = """\
        import random


        def make_rng(seed: int):
            return random.Random(seed)
        """
        assert fired("src/repro/service/ok.py", source) == []

    def test_numpy_alias_is_resolved(self):
        source = """\
        import numpy as np


        def noise():
            return np.random.rand()
        """
        assert fired("src/repro/sim/bad.py", source) == [("unseeded-random", 5)]

    def test_helpers_outside_the_simulation_fire_at_the_draw(self):
        # A helper anywhere in the tree can be called from the simulation,
        # so the draw is flagged where it happens, not at its callers.
        found = findings(
            {
                "src/repro/util/jitter.py": """\
                import random


                def jitter(base_s):
                    return base_s * random.random()


                def indirect(base_s):
                    return jitter(base_s)


                def fresh_generator():
                    return random.Random()
                """,
                "src/repro/faults/use.py": """\
                from repro.util.jitter import jitter, indirect, fresh_generator


                def delay(base_s):
                    return jitter(base_s)


                def delay2(base_s):
                    return indirect(base_s)


                def make_rng():
                    return fresh_generator()
                """,
            }
        )
        assert [(f.path, f.line, f.rule) for f in found] == [
            ("src/repro/util/jitter.py", 5, "unseeded-random"),
            ("src/repro/util/jitter.py", 13, "unseeded-random"),
        ]
        assert "random.random()" in found[0].message

    def test_seeded_helpers_are_silent(self):
        found = findings(
            {
                "src/repro/util/streams.py": """\
                import random


                def stream_for(seed):
                    return random.Random(seed)
                """,
                "src/repro/faults/use.py": """\
                from repro.util.streams import stream_for


                def delay(base_s, seed):
                    return stream_for(seed).random() * base_s
                """,
            }
        )
        assert found == []

    def test_tests_and_examples_are_in_scope(self):
        found = findings(
            {
                "tests/test_jitter.py": """\
                import random


                def test_jitter_is_small():
                    assert random.uniform(0.0, 0.1) < 0.2
                """,
                "examples/pick.py": """\
                from random import choice

                print(choice(["sirius", "nlp"]))
                """,
            }
        )
        assert [(f.path, f.line, f.rule) for f in found] == [
            ("examples/pick.py", 3, "unseeded-random"),
            ("tests/test_jitter.py", 5, "unseeded-random"),
        ]
        assert "random.choice()" in found[0].message


#: One set-valued form per case, beyond the corpora below: the source of
#: ``src/repro/sim/forms.py`` and the line of the loop or comprehension
#: that fires.
SET_FORMS = {
    "union-operator": (
        """\
        def merged(names, extra):
            for name in set(names) | extra:
                print(name)
        """,
        2,
    ),
    "intersection-operator-on-the-right": (
        """\
        def shared(names, other):
            return [name for name in names & set(other)]
        """,
        2,
    ),
    "symmetric-difference-operator": (
        """\
        def changed(before, after):
            return {name: 1 for name in frozenset(before) ^ frozenset(after)}
        """,
        2,
    ),
    "intersection-method": (
        """\
        def shared(names, other):
            for name in set(names).intersection(other):
                print(name)
        """,
        2,
    ),
    "difference-method-in-a-generator": (
        """\
        def missing(wanted, present):
            pending = set(wanted)
            return list(name for name in pending.difference(present))
        """,
        3,
    ),
    "symmetric-difference-method": (
        """\
        def changed(before: frozenset[str], after):
            for name in before.symmetric_difference(after):
                print(name)
        """,
        2,
    ),
    "typing-set-parameter": (
        """\
        from typing import Set


        def crash_all(victims: Set[str]):
            for victim in victims:
                print(victim)
        """,
        5,
    ),
    "dotted-abstract-set-parameter": (
        """\
        import typing


        def crash_all(victims: typing.AbstractSet[str]):
            for victim in victims:
                print(victim)
        """,
        5,
    ),
    "keyword-only-parameter": (
        """\
        def crash_all(*, victims: set):
            for victim in victims:
                print(victim)
        """,
        2,
    ),
    "positional-only-parameter": (
        """\
        def crash_all(victims: set, /):
            for victim in victims:
                print(victim)
        """,
        2,
    ),
    "async-function-parameter": (
        """\
        async def crash_all(victims: set[str]):
            for victim in victims:
                await victim.crash()
        """,
        2,
    ),
    "annotated-local": (
        """\
        def crash_all(stages):
            victims: set[str] = collect(stages)
            for victim in victims:
                print(victim)
        """,
        3,
    ),
    "rebound-name": (
        """\
        def crash_all(stages):
            victims = set(stages)
            queue = victims
            for victim in queue:
                print(victim)
        """,
        4,
    ),
    "module-level-comprehension": (
        """\
        STAGES = {"ASR", "IMM", "QA"}
        ORDER = [stage.lower() for stage in STAGES]
        """,
        2,
    ),
}

#: Loops the rule must leave alone: nothing in them is known to be a set.
ORDERED_FORMS = {
    "dict-merge-operator": """\
        def merged(defaults, overrides):
            for key in defaults | overrides:
                print(key)
        """,
    "name-bound-in-another-function": """\
        def first(stages):
            names = set(stages)
            return len(names)


        def second(names):
            for name in names:
                print(name)
        """,
    "parameter-shadows-an-outer-set": """\
        def outer(stages):
            names = set(stages)

            def inner(names: list):
                return [name for name in names]

            return inner(sorted(names))
        """,
}


class TestUnorderedIteration:
    @pytest.mark.parametrize("form", sorted(SET_FORMS))
    def test_each_set_form_fires(self, form):
        source, line = SET_FORMS[form]
        assert fired("src/repro/sim/forms.py", source) == [("unordered-iteration", line)]

    @pytest.mark.parametrize("form", sorted(ORDERED_FORMS))
    def test_loops_over_unknown_values_are_silent(self, form):
        assert fired("src/repro/sim/forms.py", ORDERED_FORMS[form]) == []

    def test_set_loops_reaching_side_effects(self):
        source = """\
        import heapq


        def schedule_victims(sim, victims: set, delay_s):
            for victim in victims:
                sim.schedule(delay_s, victim.crash)


        def heap_from_set(pending):
            ids = {1, 2, 3}
            heap = []
            for item in ids:
                heapq.heappush(heap, item)
            return heap


        def via_helper(sim, names):
            targets = set(names)
            for name in targets:
                _enqueue(sim, name)


        def _enqueue(sim, name):
            sim.schedule(1.0, name)
        """
        assert fired("src/repro/sim/det.py", source) == [
            ("unordered-iteration", 5),
            ("unordered-iteration", 12),
            ("unordered-iteration", 19),
        ]

    def test_sorted_iteration_is_silent_and_a_pure_body_fires(self):
        source = """\
        def sorted_is_fine(sim, victims: set, delay_s):
            for victim in sorted(victims):
                sim.schedule(delay_s, victim.crash)


        def pure_body(victims: set):
            total = 0.0
            for victim in victims:
                total += victim.cost
            return total
        """
        # The body is not read: a float sum over a set is order-dependent
        # too, and sorted(...) costs nothing to write.
        assert fired("src/repro/sim/ok.py", source) == [("unordered-iteration", 8)]

    def test_comprehensions_and_set_expressions_fire(self):
        source = """\
        from typing import FrozenSet


        def run(application):
            for name in {stage.name for stage in application.stages}:
                application.stage(name).withdraw()


        def hangs(application, busy):
            for stage in set(application.stages):
                stage.crash()
            live: FrozenSet[str] = frozenset(busy)
            spare = live - {"ASR"}
            names = [name for name in spare]
            return {name: 1 for name in live.union(busy)}, names


        def ordered(application, busy: list):
            seen = set(busy)
            return [name for name in sorted(seen)], [
                stage for stage in application.stages
            ]
        """
        assert fired("src/repro/core/withdraw.py", source) == [
            ("unordered-iteration", 5),
            ("unordered-iteration", 10),
            ("unordered-iteration", 14),
            ("unordered-iteration", 15),
        ]

    def test_out_of_scope_directories_are_exempt(self):
        source = """\
        def names(stages):
            return [name for name in {stage.name for stage in stages}]
        """
        assert fired("src/repro/obs/report.py", source) == []


#: The mutable defaults ``@dataclass`` must reject, as written in a field.
MUTABLE_DEFAULTS = (
    "[]",
    "[x for x in range(2)]",
    "{}",
    "{x: x for x in range(2)}",
    "{1}",
    "{x for x in range(2)}",
    "list()",
    "dict()",
    "set()",
    "bytearray()",
    "deque()",
    "defaultdict()",
    "Counter()",
)


class TestDataclassRules:
    def test_python_rejects_every_mutable_default(self):
        # No rule guards these: the interpreter refuses them at class
        # creation, bare and through field(default=...).
        from collections import Counter, defaultdict, deque
        from dataclasses import dataclass, field

        namespace = {
            "dataclass": dataclass,
            "field": field,
            "deque": deque,
            "defaultdict": defaultdict,
            "Counter": Counter,
        }
        forms = [
            form
            for default in MUTABLE_DEFAULTS
            for form in (default, f"field(default={default})")
        ]
        assert len(forms) == 26
        for form in forms:
            source = f"@dataclass\nclass Config:\n    tags: object = {form}\n"
            with pytest.raises(ValueError, match="mutable default"):
                exec(source, dict(namespace))


class TestScenarioBypass:
    def test_fires_on_direct_stack_assembly(self):
        found = findings(
            {
                "src/repro/experiments/adhoc.py": """\
                from repro.cluster import Machine, PowerBudget
                from repro.service import CommandCenter
                from repro.sim import Simulator


                def assemble():
                    sim = Simulator()
                    machine = Machine(sim, n_cores=16)
                    budget = PowerBudget(machine, 40.0)
                    return CommandCenter(sim, None), budget
                """
            }
        )
        assert [(f.rule, f.line) for f in found] == [
            ("scenario-bypass", 8),
            ("scenario-bypass", 9),
            ("scenario-bypass", 10),
        ]
        assert "bypasses the scenario layer" in found[0].message

    def test_scenario_package_and_tests_are_exempt(self):
        snippet = """\
        from repro.cluster import Machine
        from repro.sim import Simulator


        def assemble():
            return Machine(Simulator(), n_cores=4)
        """
        found = findings(
            {"src/repro/scenario/builder.py": snippet, "tests/test_machine.py": snippet}
        )
        assert found == []

    def test_foreign_machine_is_not_flagged(self):
        source = """\
        import sklearn.machine as skm


        def foreign():
            return skm.Machine()
        """
        assert fired("src/repro/experiments/other.py", source) == []
