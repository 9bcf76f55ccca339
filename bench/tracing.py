"""Spans and counters around the public functions of the loaded superx modules.

``install`` replaces every binding of each traced function in every loaded
``superx`` module, so ``cli.is_commutative`` and ``verify.is_commutative``
both go through one wrapper, and returns the replaced bindings for
``restore``.  Spans stay in memory as ``[name, start, end, parent]`` rows
until the command ends; ``span_times`` turns them into self times.

A span is named after the module that defines the function
(``semigroups.is_commutative``).  Helpers called millions of times per
command are only counted, per calling module (``invariants.translate_set``),
so they add no timing cost; their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter
from pathlib import Path

COUNT_ONLY = frozenset({"translate_set", "inverse_translate_set", "difference_set"})

# Private functions that are layer boundaries all the same.
EXTRA = frozenset({("superx.cli", "_render")})

ALIASES = {
    "cli._render": "cli.render",
    "semigroups.zero": "semigroups.zeros",
    "semigroups.left_zeros": "semigroups.zeros",
    "semigroups.right_zeros": "semigroups.zeros",
}


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _load_counts(counts, result, args):
    if result is None:
        counts["cache.misses"] += 1
    else:
        counts["cache.hits"] += 1
        counts["cache.load_table.bytes"] += _dir_bytes(args[0])


# Work counts taken from a traced function's result: name -> f(counts, result, args).
RESULT_COUNTS = {
    "families.enumerate_mls": lambda c, r, a: c.update({"families.enumerate_mls.systems": len(r)}),
    "superext.build_lambda_table": lambda c, r, a: c.update({"superext.build_lambda_table.cells": r.order**2}),
    "invariants.self_linked_subsets": lambda c, r, a: c.update({"invariants.vertices": len(r)}),
    "invariants.enumerate_invariant_mls": lambda c, r, a: c.update({"invariants.systems": len(r)}),
    "cache.save_table": lambda c, r, a: c.update({"cache.save_table.bytes": os.path.getsize(r)}),
    "cache.load_table": _load_counts,
    "cli.render": lambda c, r, a: c.update({"cli.output_bytes": len(r.encode())}),
}


class Tracer:
    """Spans and counts of one command, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def timed(self, name: str, fn):
        spans, counts, stack = self.spans, self.counts, self._open
        calls = name + ".calls"
        on_result = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            row = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, result, args)
            return result

        return wrapper

    def counted(self, calls: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper


def superx_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "superx" or name.startswith("superx."))
    ]


def _short(module) -> str:
    return module.__name__.rpartition(".")[2]


def _traced_functions(modules) -> dict[int, tuple]:
    """id -> (function, span name) for the public functions each module defines."""
    found = {}
    for module in modules:
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and (not attr.startswith("_") or (module.__name__, attr) in EXTRA)
                and not inspect.isgeneratorfunction(value)
            ):
                name = f"{_short(module)}.{attr}"
                found[id(value)] = (value, ALIASES.get(name, name))
    return found


def install(tracer: Tracer) -> list[tuple]:
    """Wrap the traced functions everywhere they are bound; returns what to restore."""
    modules = superx_modules()
    targets = _traced_functions(modules)
    wrappers: dict[int, object] = {}
    replaced = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            target = targets.get(id(value))
            if target is None:
                continue
            fn, name = target
            if fn.__name__ in COUNT_ONLY:
                wrapper = tracer.counted(f"{_short(module)}.{fn.__name__}.calls", fn)
            else:
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = tracer.timed(name, fn)
                wrapper = wrappers[id(fn)]
            replaced.append((module, attr, value))
            setattr(module, attr, wrapper)
    # Table construction validates the product (associativity included).
    table_cls = sys.modules["superx.semigroups"].SemigroupTable
    validate = table_cls.__dict__["__post_init__"]
    replaced.append((table_cls, "__post_init__", validate))
    table_cls.__post_init__ = tracer.timed("semigroups.validate", validate)
    return replaced


def restore(replaced: list[tuple]) -> None:
    for owner, attr, original in reversed(replaced):
        setattr(owner, attr, original)


def _module(name: str) -> str:
    return name.partition(".")[0]


def _nested_in_namesake(spans, i: int) -> bool:
    """Whether span i runs, through calls inside its module, under a span of its name."""
    name = spans[i][0]
    parent = spans[i][3]
    while parent >= 0 and _module(spans[parent][0]) == _module(name):
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def span_times(spans) -> dict[str, float]:
    """Self time per span name.

    A function's self time is its span minus the time spent below it in
    other modules: calls it makes into its own module count as its work, so
    a function keeps the cost of its helpers however they are split up.  A
    span nested that way inside a span of the same name (recursion, or the
    functions behind ``semigroups.zeros``) adds nothing more to the name.

    Spans come from one thread and each starts after its parent, so
    children lie inside their parent, do not overlap, and sit later in the
    list.
    """
    foreign = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent = spans[i]
        if parent >= 0:
            same = _module(spans[parent][0]) == _module(name)
            foreign[parent] += foreign[i] if same else end - start
    by_name: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        if not _nested_in_namesake(spans, i):
            by_name[name] = by_name.get(name, 0.0) + (end - start) - foreign[i]
    return by_name
