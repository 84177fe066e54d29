"""Each module's ``__all__`` names what the module defines, and the package
imports from a module only what that module's ``__all__`` lists."""

import ast
import importlib
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
