from __future__ import annotations

from pathlib import Path

import superx

README = Path(__file__).resolve().parents[1] / "README.md"


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
