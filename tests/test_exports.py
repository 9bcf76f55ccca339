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


def _names_read(node: ast.AST) -> set[str]:
    """Every name a node reads: a variable or attribute as ``name``, an attribute also as ``.name``."""
    attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | attrs | {"." + a for a in attrs}


def _unreached(trees: list[ast.Module]) -> set[str]:
    """Top-level functions and classes, and methods as ``Class.name``, that no root reaches.

    The roots are ``main`` and every name read by module-level code
    outside a definition.  ``__all__`` holds strings, not reads, so an
    export alone reaches nothing: only a command, a verify row or
    module-level code counts as a caller.  A reached definition
    reaches every name it reads, in any module.  A method is reached only
    by a reached definition reading ``.name`` as an attribute, so a local
    variable of the same name does not reach it; a class reaches its own
    dunder methods.  Matching names across modules and classes can only
    over-count what is reached.
    """
    defs: dict[str, list[tuple[str, list[ast.AST]]]] = {}  # key -> (label, the nodes it reads)
    roots = {"main"}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = [node]
                if isinstance(node, ast.ClassDef):
                    dunder = lambda name: name.startswith("__") and name.endswith("__")
                    methods = [m for m in node.body if isinstance(m, ast.FunctionDef) and not dunder(m.name)]
                    own = [*node.bases, *node.decorator_list, *(s for s in node.body if s not in methods)]
                    for m in methods:
                        defs.setdefault("." + m.name, []).append((f"{node.name}.{m.name}", [m]))
                defs.setdefault(node.name, []).append((node.name, own))
            else:
                roots |= _names_read(node)
    reached: set[str] = set()
    todo = list(roots)
    while todo:
        key = todo.pop()
        if key in defs and key not in reached:
            reached.add(key)
            for _, nodes in defs[key]:
                for node in nodes:
                    todo.extend(_names_read(node))
    return {label for key, entries in defs.items() if key not in reached for label, _ in entries}


def test_every_src_definition_is_reached():
    """Every top-level definition and method in src feeds a command or a verify row.

    Being listed in ``__all__`` does not reach a name, so any unreached
    name or method fails.
    """
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert _unreached(trees) == set()


def test_reachability_check_flags_a_dead_definition():
    cli = ast.parse("def main():\n    helper()\ndef helper():\n    pass\ndef dead():\n    pass\n")
    lib = ast.parse(
        "__all__ = ['api']\nTABLE = {'k': listed}\n"
        "def api():\n    pass\ndef listed():\n    pass\ndef orphan():\n    api()\nclass Unused:\n    pass\n"
    )
    # a method is reached by an attribute read in reached code: not by a bare name, nor from unreached code
    shapes = ast.parse(
        "class Shape:\n"
        "    def __init__(self):\n        self.size = 1\n"
        "    @property\n    def area(self):\n        return self._scale()\n"
        "    def _scale(self):\n        return 2\n"
        "    def shift(self):\n        pass\n"
        "    def unused(self):\n        pass\n"
        "SHAPE = Shape()\nshift = SHAPE.area\n"
        "def caller():\n    SHAPE.unused()\n"
    )
    # an export is not a caller: ``api`` is listed in __all__ and read only by the unreached ``orphan``
    assert _unreached([cli, lib, shapes]) == {
        "dead", "api", "orphan", "Unused", "Shape.shift", "Shape.unused", "caller"
    }
