"""Source hygiene: every name a module imports is read somewhere in it,
every function the bench tracer wraps by name still exists, the emitter
never reads pair tuples, every slot of a matching or a morphism is read,
the engine's hot paths build no pair text, the single-diagram kernels and
the projector ladder never compose, and the battery's direct/certified budgets are read by its one
decide step."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import wenzl
from wenzl import jw, tl
from wenzl.jw import JWCache, _ladder, jones_wenzl
from wenzl.rings import QQ
from wenzl.tl import tensor_with_identity

REPO = Path(__file__).resolve().parents[1]

MODULES = sorted(
    p for p in Path(wenzl.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression ever reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_scanner_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == [
        "os (line 1)",
        "b (line 2)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def fraction_uses(source: str) -> list[str]:
    """Imports of ``fractions`` and calls named lift, settle or Fraction."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {a.name} (line {node.lineno})"
                      for a in node.names if a.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append(f"from fractions (line {node.lineno})")
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if name in ("lift", "settle", "Fraction"):
                found.append(f"{name}() (line {node.lineno})")
    return found


def test_scanner_flags_fraction_uses():
    source = "from fractions import Fraction\nimport fractions\nx = ring.lift(t)\n"
    source += "y = QQ.settle(a, 1)\nz = Fraction(1, 2)\nw = x.ints()\n"
    assert fraction_uses(source) == [
        "from fractions (line 1)", "import fractions (line 2)", "lift() (line 3)",
        "settle() (line 4)", "Fraction() (line 5)",
    ]


@pytest.mark.parametrize("name", ["tl.py", "jw.py"])
def test_kernels_keep_fractions_at_the_boundary(name):
    # the kernels read and write int numerators over one denominator; only
    # the coefficient readers build a ring element, through the ring adapter
    path = Path(wenzl.__file__).parent / name
    assert fraction_uses(path.read_text()) == []


def _load_bench_tracer():
    spec = importlib.util.spec_from_file_location(
        "_bench_tracer", REPO / "bench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_bench_tracer_targets_resolve():
    # a traced bench run reports a metric as absent when the function it
    # wraps is gone, and reads the sizes of these two tables at the end
    tracer = _load_bench_tracer()
    assert [t.name for t in tracer.TARGETS if tracer._resolve(t) is None] == []
    for name in ("_INTERN", "_COMPOSE_MEMO"):
        assert len(getattr(tl, name)) >= 0


def attribute_reads(source: str, attr: str) -> list[int]:
    """Lines that read ``<expr>.attr``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == attr
        and isinstance(node.ctx, ast.Load)
    ]


def test_scanner_flags_attribute_reads():
    source = "a = m.pairs\nb = m.pairs_json\nc = d['pairs']\nm.pairs = 1\nf(x.pairs)\n"
    assert attribute_reads(source, "pairs") == [1, 5]


def test_serializer_reads_no_pair_tuples():
    # the emitter splices each matching's kept pair text; a read of the
    # tuple would build one per term again
    path = Path(wenzl.__file__).parent / "serialize.py"
    assert attribute_reads(path.read_text(), "pairs") == []


def unread_slots(cls, sources: list[str]) -> list[str]:
    """The ``__slots__`` names of cls, ``__weakref__`` aside, that no source reads."""
    return [
        name for name in cls.__slots__
        if name != "__weakref__" and not any(attribute_reads(s, name) for s in sources)
    ]


def test_scanner_flags_unread_slots():
    class K:
        __slots__ = ("a", "b", "c", "__weakref__")

    assert unread_slots(K, ["x.a\n", "x.b = 1\nf(y.c)\n"]) == ["b"]


@pytest.mark.parametrize("cls", [tl.CrossinglessMatching, tl.TLMorphism],
                         ids=["CrossinglessMatching", "TLMorphism"])
def test_every_slot_is_read(cls):
    # a slot that nothing reads costs every instance its bytes for nothing
    assert unread_slots(cls, [path.read_text() for path in MODULES]) == []


_HOT_PATHS = """
from wenzl import jw, pjw, tl
built = []
pairs = tl.CrossinglessMatching.pairs.fget
tl.CrossinglessMatching.pairs = property(lambda m: built.append(m) or pairs(m))
jw.jones_wenzl(9)
for n in range(1, 10):
    assert pjw.verify_battery(pjw.rational_pjw(n, 3)).ok
with_text = sum(m._pairs_json is not None for m in tl._INTERN.values())
print(len(tl._INTERN), len(built), with_text)
"""


def test_hot_paths_build_no_pair_tuples():
    # pair tuples and pair text are derived for rendering and serialization
    # only: building projectors and running the battery must read neither.
    # A fresh process, so the intern table holds only what these paths made.
    env = dict(os.environ, PYTHONPATH=str(Path(wenzl.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _HOT_PATHS],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    interned, tuples_built, with_text = map(int, proc.stdout.split())
    assert interned > 1000
    assert tuples_built == 0
    assert with_text == 0


def calls_reached(source: str, roots: list[str]) -> dict[str, set[str]]:
    """For each root function, the names called by it and by every function
    or method of the same source that it reaches through its calls (a call
    ``f(...)`` or ``x.f(...)`` reaches each definition named f)."""
    tree = ast.parse(source)
    defs: dict[str, list[ast.FunctionDef]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            defs.setdefault(node.name, []).append(node)

    def called(fn):
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name:
                    yield name

    reached = {}
    for root in roots:
        seen, todo = set(), [root]
        while todo:
            for fn in defs.get(todo.pop(), []):
                for name in called(fn):
                    if name not in seen:
                        seen.add(name)
                        todo.append(name)
        reached[root] = seen
    return reached


def test_scanner_follows_calls():
    source = (
        "def a(x):\n    return b(x) + x.c()\n"
        "def b(x):\n    return len(x)\n"
        "class K:\n    def c(self):\n        return d(self)\n"
        "def d(y):\n    return y\n"
    )
    assert calls_reached(source, ["a", "b"]) == {"a": {"b", "c", "len", "d"}, "b": {"len"}}


def test_single_diagram_kernels_compose_nothing():
    # products with one diagram, strand closures and padding are boundary
    # splices: no path from them reaches the product kernel or the boundary walk
    source = (Path(wenzl.__file__).parent / "tl.py").read_text()
    roots = [
        "apply_matching_left", "apply_matching_right", "partial_close_right",
        "tensor_with_identity",
    ]
    reached = calls_reached(source, roots)
    for root in roots:
        assert "splice_ints" in reached[root]
        forbidden = {"compose", "matching_compose", "_matching_compose_walk"}
        assert reached[root] & forbidden == set(), root


def test_padding_builds_no_tensor_product():
    # JW_k (x) id is one key insertion per term: a cold JW_9 builds with the
    # matching-level tensor refused, and equals the projector built without
    with mock.patch.object(tl, "matching_tensor", side_effect=AssertionError):
        built = jones_wenzl(9, QQ, JWCache())
    assert built == jones_wenzl(9, QQ, JWCache())


def test_ladder_composes_nothing():
    # building JW_k and applying it by layers are generator rewirings only:
    # the ladder and a cold JW_9 run with the product kernel refused
    x = tensor_with_identity(jones_wenzl(5, QQ, JWCache()), 2)
    x = x.add(tl.apply_e_top(6, x))
    assert not tl.top_killed_upto(x, 7) and x._top_kill == 5
    want = tl.compose(jones_wenzl(7, QQ, JWCache()), x)
    with mock.patch.object(tl, "compose", side_effect=AssertionError), \
            mock.patch.object(jw, "compose", side_effect=AssertionError):
        got = _ladder(7, x)
        built = jones_wenzl(9, QQ, JWCache())
    assert got == want and not got.is_zero()
    assert built == jones_wenzl(9, QQ, JWCache())


def budget_reads(source: str) -> dict[str, list[str]]:
    """Where each DIRECT_BUDGET_* name is read: "decide" for a default of a
    function named decide or an argument of a call to decide, else "elsewhere"."""
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "decide":
            for d in node.args.defaults + node.args.kw_defaults:
                if d is not None:
                    inside.update(id(n) for n in ast.walk(d))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "decide":
            for a in node.args + [k.value for k in node.keywords]:
                inside.update(id(n) for n in ast.walk(a))
    reads: dict[str, list[str]] = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id.startswith("DIRECT_BUDGET")
        ):
            where = "decide" if id(node) in inside else "elsewhere"
            reads.setdefault(node.id, []).append(where)
    return reads


def test_scanner_flags_budget_reads():
    source = (
        "def decide(c, budget=DIRECT_BUDGET_Q):\n    return c <= budget\n"
        "decide(1, DIRECT_BUDGET_FP)\nif c <= DIRECT_BUDGET_Q:\n    pass\n"
    )
    assert budget_reads(source) == {
        "DIRECT_BUDGET_Q": ["decide", "elsewhere"],
        "DIRECT_BUDGET_FP": ["decide"],
    }


def test_budgets_are_read_once_by_the_battery_step():
    # every budgeted battery check goes through pjw.verify_battery's decide
    # step; a check with its own ``if cost <= DIRECT_BUDGET_*`` fails here
    reads: dict[str, list[str]] = {}
    for path in MODULES:
        for name, where in budget_reads(path.read_text()).items():
            reads.setdefault(name, []).extend(where)
    assert reads == {"DIRECT_BUDGET_Q": ["decide"], "DIRECT_BUDGET_FP": ["decide"]}
    tree = ast.parse((Path(wenzl.__file__).parent / "pjw.py").read_text())
    steps = [
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "decide"
    ]
    assert len(steps) == 1
