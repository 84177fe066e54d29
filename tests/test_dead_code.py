"""Every module-level function and class of the package and its scripts is named somewhere outside its own def."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "dirac_qca").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
# kept for perfbench/tracing.py, which wraps them as traced layers, until ROADMAP item 1 drops those layers
ALLOWED = {"automaton.evolve_position", "dispersion.sin_omega"}


def unnamed_definitions():
    """{module.name} of each top-level def or class that no other top-level statement names, in any source file.

    A name counts where it is read as a variable or an attribute; an import or an ``__all__`` entry does not.
    """
    statements = [(path.stem, node) for path in SOURCES for node in ast.parse(path.read_text(encoding="utf-8")).body]
    named = [
        {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        for _, node in statements
    ]
    return {
        f"{module}.{node.name}"
        for i, (module, node) in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(node.name in names for j, names in enumerate(named) if j != i)
    }


def test_no_unnamed_definitions():
    assert unnamed_definitions() == ALLOWED
