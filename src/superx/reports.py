"""Structured command results with text/json/csv rendering."""

from __future__ import annotations

import json
from dataclasses import KW_ONLY, dataclass, field


@dataclass
class Report:
    command: str
    group: str | None = None
    status: str = "info"  # pass | fail | info
    payload: dict = field(default_factory=dict)
    elapsed_ms: int = 0
    # The text and CSV view, not part of to_dict(): head, the table of
    # headers and rows, then tail, which only the text format prints.
    _: KW_ONLY
    headers: list[str]
    rows: list[list]
    head: str = ""
    tail: str = ""

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "group": self.group,
            "status": self.status,
            "payload": self.payload,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, sort_keys=True)


def render_rows_text(headers: list[str], rows: list[list]) -> str:
    """Plain aligned table, without trailing spaces."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h) for i, h in enumerate(headers)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in [headers, *cells])


def render_rows_csv(headers: list[str], rows: list[list]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")

