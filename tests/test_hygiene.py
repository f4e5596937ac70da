"""Source hygiene: every name a module imports is read somewhere in it, and
every function the bench tracer wraps by name still exists."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import wenzl
from wenzl import tl

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
