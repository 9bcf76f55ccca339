"""The benchmark's workloads and the pinned results every run is checked against.

A workload is a fixed list of ``superx`` CLI commands; one iteration runs
each once, in a fresh interpreter, against an empty cache directory.  The
reason for each workload is recorded in BENCHMARK.json.  ``observed``
reads the fields of a command's text output that ``pinned.json`` fixes;
``check`` lists every field that differs from its pin.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

PINNED = Path(__file__).with_name("pinned.json")

# Longer values are pinned by digest.
MAX_LITERAL = 120


@dataclass(frozen=True)
class Command:
    key: str
    argv: tuple[str, ...]
    digest: bool = False  # also pin a digest of the Cayley table built or loaded


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    in_order: bool = False  # commands depend on each other; the seed may not reorder them


_TABLE = ("lambda", "C6", "--what=table")

WORKLOADS = {
    "lambda-structure": Workload((Command("structure-C6", ("lambda", "C6", "--what=structure")),)),
    "verify-all": Workload((Command("verify-all", ("verify-paper", "--scope=all")),)),
    "invariant-large": Workload(
        tuple(
            Command(f"invariant-{name}", ("invariant", name, "--allow-large"))
            for name in ("C3xC3", "C9", "D10")
        )
    ),
    "table-cache": Workload(
        (Command("table-miss", _TABLE, digest=True), Command("table-hit", _TABLE, digest=True)),
        in_order=True,
    ),
}


def pin_value(raw: str) -> str:
    if len(raw) <= MAX_LITERAL:
        return raw
    return "sha256:" + hashlib.sha256(raw.encode()).hexdigest()


def _key_values(text: str) -> dict[str, str]:
    """The rows of a ``key value`` table."""
    out = {}
    for line in text.splitlines()[1:]:
        key, _, value = line.strip().partition(" ")
        if key:
            out[key] = value.strip()
    return out


def _columns(text: str) -> list[list[str]]:
    """The rows of an aligned table, cut at the header's column starts."""
    header, *rows = text.splitlines()
    starts = [m.start() for m in re.finditer(r"\S+", header)]
    bounds = list(zip(starts, starts[1:] + [None]))
    return [[row[a:b].strip() for a, b in bounds] for row in rows if row.strip()]


def observed(command: Command, text: str, record: dict) -> dict[str, str]:
    """The pinned fields of one command's output, as raw strings."""
    kind = command.argv[0]
    if kind == "lambda":
        fields = _key_values(text)
        if command.digest:
            fields["table_digest"] = str(record.get("table_digest"))
        return fields
    if kind == "invariant":
        head, _, body = text.partition("\n")
        fields = dict(token.split("=", 1) for token in head.split())
        rows = _columns(body)
        fields["rows"] = str(len(rows))
        fields["systems"] = "\n".join(" ".join(row) for row in rows)
        return fields
    if kind == "verify-paper":
        rows = _columns(text)
        fields = {f"row {i}": " | ".join(row) for i, row in enumerate(rows)}
        fields["rows"] = str(len(rows))
        fields["mismatches"] = ", ".join(name for name, *rest in rows if rest[-1] == "MISMATCH")
        return fields
    raise ValueError(f"no reader for {kind!r} output")


def load_pins() -> dict:
    return json.loads(PINNED.read_text())


def check(command: Command, exit_code: int, text: str, record: dict, pins: dict) -> list[str]:
    """Every way the command's result differs from its pin; empty when it matches."""
    pin = pins[command.key]
    problems = []
    if exit_code != pin["exit"]:
        problems.append(f"{command.key}: exit code {exit_code}, pinned {pin['exit']}")
    got = observed(command, text, record)
    for field, want in pin["fields"].items():
        value = got.get(field)
        if value is None:
            problems.append(f"{command.key}: {field} missing from the output")
        elif pin_value(value) != want:
            problems.append(f"{command.key}: {field} = {value[:80]!r}, pinned {want[:80]!r}")
    return problems
