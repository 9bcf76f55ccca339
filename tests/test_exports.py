from __future__ import annotations

import superx


def test_every_export_resolves():
    for name in superx.__all__:
        assert hasattr(superx, name), name


def test_star_import():
    namespace: dict = {}
    exec("from superx import *", namespace)
    assert set(superx.__all__) <= set(namespace)
