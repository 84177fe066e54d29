"""Each module's ``__all__`` names what the module defines, and the package
imports from a module only what that module's ``__all__`` lists.  The
benchmark's layer list names callables whose arguments sit where its
counters read them."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import dirac_qca

PACKAGE_DIR = Path(dirac_qca.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE_DIR.glob("*.py") if path.stem != "__init__")


def package_imports():
    """{module: names} that ``dirac_qca/__init__.py`` imports from each of its modules."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    imports = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imports.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return imports


@pytest.mark.parametrize("name", MODULES)
def test_all_is_truthful(name):
    module = importlib.import_module(f"dirac_qca.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert [n for n in package_imports().get(name, []) if n not in exported] == []


def load_tracing():
    """``perfbench/tracing.py`` loaded from its file; its tracer is not installed."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load_tracing()
# counter -> {position: parameter name} of each argument it reads
COUNTER_ARGS = {
    TRACING._points: {0: "k"},
    TRACING._site_steps: {0: "field", 2: "t"},
    TRACING._file_bytes: {0: "path"},
    TRACING._expected_kept_draws: {0: "inp", 1: "samples"},
}
TRACED = [(module, func, counter) for module, funcs in TRACING.LAYERS.items() for func, counter in funcs.items()]


@pytest.mark.parametrize("module, func, counter", TRACED, ids=[f"{m}.{f}" for m, f, _ in TRACED])
def test_traced_layer_signature(module, func, counter):
    target = getattr(importlib.import_module(f"dirac_qca.{module}"), func, None)
    assert callable(target)
    if counter is not None:
        names = list(inspect.signature(target).parameters)
        assert {pos: names[pos] for pos in COUNTER_ARGS[counter]} == COUNTER_ARGS[counter]
