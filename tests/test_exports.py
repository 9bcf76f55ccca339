from __future__ import annotations

import ast
from pathlib import Path

import superx

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(superx.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def test_every_export_resolves():
    for name in superx.__all__:
        assert hasattr(superx, name), name


def test_star_import():
    namespace: dict = {}
    exec("from superx import *", namespace)
    assert set(superx.__all__) <= set(namespace)


def test_readme_entry_points_import():
    """The README's "Library entry points" block names only importable functions."""
    section = README.read_text().split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "import" in block
    exec(block, {})


def _unused_imports(tree: ast.Module) -> set[str]:
    """Names a module imports but never reads; a name in __all__ counts as read."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return imported - used - {"annotations"}


def test_no_unused_imports():
    """Every name imported in src/superx and in tests is used in its module."""
    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]):
        assert not _unused_imports(ast.parse(path.read_text())), path.name


def test_unused_import_check_flags_a_dead_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\n__all__ = ['loads']\n")
    assert _unused_imports(tree) == {"os", "dumps"}
