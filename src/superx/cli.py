"""Command-line front door.

Commands: sl-table, lambda, invariant, c5-t17, verify-paper, explore-sl.
Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error,
3 capacity exceeded, 4 internal invariant failed.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import expected as ref
from .cache import cache_path, load_table, resolve_cache_dir, save_table
from .errors import CapacityError, ConsistencyError, GroupParseError
from .groups import build_group
from .invariants import (
    enumerate_invariant_mls,
    sim_classes,
    sl,
    sl_lower_bound,
    up_majority_count,
)
from .reports import Report, render_rows_csv, render_rows_text
from .semigroups import (
    central_elements,
    idempotents,
    is_commutative,
    maximal_subgroup_at,
    minimal_ideal,
    zero,
)
from .superext import (
    build_lambda_table,
    lambda_elements,
    shift_orbits,
    transversal_subsemigroup_search,
)
from .verify import lambda_labels, run_verification, sl_table_rows, t17_cells

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


def _timed(fn):
    start = time.perf_counter()
    report = fn()
    report.elapsed_ms = int((time.perf_counter() - start) * 1000)
    return report


def cmd_sl_table(max_order: int = 13) -> Report:
    rows = sl_table_rows(max_order)
    all_match = all(r["match"] for r in rows)
    return Report(
        command="sl-table",
        status="pass" if all_match else "fail",
        payload={"rows": rows, "all_match": all_match},
    )


def cmd_lambda(group_name: str, what: str, *, allow_large: bool = False, cache_dir=None) -> Report:
    g = build_group(group_name)
    if what == "count":
        systems = lambda_elements(g, allow_large=allow_large)
        _, orbits = shift_orbits(g, systems)
        payload = {"count": len(systems), "orbit_count": len(orbits)}
        expected_count = ref.LAMBDA_COUNTS.get(g.order)
        if g.order == 7:
            expected_count = ref.LAMBDA_COUNT_7
        payload["expected_count"] = expected_count
        if g.name == f"C{g.order}" and g.order in ref.LAMBDA_ORBIT_COUNTS:
            payload["expected_orbit_count"] = ref.LAMBDA_ORBIT_COUNTS[g.order]
        mismatched = (
            expected_count is not None and payload["count"] != expected_count
        ) or payload.get("expected_orbit_count") not in (None, payload["orbit_count"])
        return Report("lambda", group_name, "fail" if mismatched else "pass", payload)
    if what == "table":
        directory = resolve_cache_dir(cache_dir)
        table = load_table(directory, g)
        hit = table is not None
        if table is None:
            table = build_lambda_table(g)
            save_table(directory, g, table)
        payload = {
            "count": table.order,
            "cache_file": str(cache_path(directory, g.name)),
            "cache_hit": hit,
        }
        if table.order <= 100:
            payload["matrix"] = [[int(v) for v in row] for row in table.product]
            payload["elements"] = [s.serialize() for s in table.elements]
        return Report("lambda", group_name, "pass", payload)
    if what == "structure":
        table = build_lambda_table(g)
        labels = lambda_labels(g, table.elements)
        idem = idempotents(table)
        z = zero(table)
        commutative, witness = is_commutative(table)
        ideal = sorted(minimal_ideal(table))
        payload = {
            "count": table.order,
            "idempotents": [labels[i] for i in idem],
            "zero": labels[z] if z is not None else None,
            "commutative": commutative,
            "witness": [labels[witness[0]], labels[witness[1]]] if witness else None,
            "minimal_ideal_size": len(ideal),
            "minimal_ideal": [labels[i] for i in ideal] if len(ideal) <= 16 else None,
            "central_count": len(central_elements(table)),
            "subgroup_orders": {labels[e]: maximal_subgroup_at(table, e).order for e in idem},
        }
        if g.order <= 5:
            tr = transversal_subsemigroup_search(g, table)
            payload["transversal"] = [labels[i] for i in tr] if tr is not None else None
        return Report("lambda", group_name, "pass", payload)
    raise GroupParseError(f"unknown --what value {what!r}")


def cmd_invariant(group_name: str, *, allow_large: bool = False) -> Report:
    g = build_group(group_name)
    systems = enumerate_invariant_mls(g, allow_large=allow_large)
    payload = {
        "count": len(systems),
        "expected": ref.INVARIANT_COUNTS.get(group_name),
        "systems": [
            {
                "minimal_sets": list(s.family.minimal_sets),
                "maximal_linked": s.family.is_maximal_linked(),
            }
            for s in systems
        ],
    }
    if g.order % 2 == 0:
        classes = sim_classes(g)
        payload["s"] = classes.s
        payload["up_majority"] = up_majority_count(g, systems, classes)
    status = "pass"
    if payload["expected"] is not None and payload["expected"] != payload["count"]:
        status = "fail"
    return Report("invariant", group_name, status, payload)


def cmd_c5_t17() -> Report:
    cells, col_row_full = t17_cells()
    row_col_full = all(c["match"] for c in cells)
    exactly_one = row_col_full != col_row_full
    payload = {
        "cells": cells,
        "row_col_match": row_col_full,
        "col_row_match": col_row_full,
        "exactly_one_orientation": exactly_one,
        "mismatches": [c for c in cells if not c["match"]],
    }
    status = "pass" if (row_col_full and exactly_one) else "fail"
    return Report("c5-t17", "C5", status, payload)


def cmd_verify_paper(scope: str = "fast") -> Report:
    rows, all_pass = run_verification(scope)
    return Report(
        command="verify-paper",
        status="pass" if all_pass else "fail",
        payload={"scope": scope, "rows": rows, "all_pass": all_pass},
    )


def cmd_explore_sl(max_n: int = 16) -> Report:
    max_n = min(max_n, 16)
    rows = []
    for n in range(1, max_n + 1):
        got = sl(build_group(f"C{n}"))
        conjecture = sl_lower_bound(n)
        rows.append(
            {
                "n": n,
                "sl": got,
                "conjecture": conjecture,
                "equal": got == conjecture,
                "reference": ref.SL_TABLE.get(f"C{n}"),
            }
        )
    return Report("explore-sl", status="info", payload={"rows": rows})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superx",
        description="Superextension semigroups of small finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group=False):
        if group:
            p.add_argument("group", help="group name, e.g. C5, C2xC4, D8, Q8, A4, C3:C4")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("sl-table", help="smallest self-linked set sizes for the catalog")
    p.add_argument("--max-order", type=int, default=13)
    common(p)

    p = sub.add_parser("lambda", help="system counts, Cayley table or structure for one group")
    common(p, group=True)
    p.add_argument("--what", choices=("count", "table", "structure"), default="count")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--allow-large", action="store_true")

    p = sub.add_parser("invariant", help="maximal invariant linked systems of one group")
    common(p, group=True)
    p.add_argument("--allow-large", action="store_true")

    p = sub.add_parser("c5-t17", help="validate the 17x17 representative table over C5")
    common(p)

    p = sub.add_parser("verify-paper", help="run the embedded verification suite")
    p.add_argument("--scope", choices=("fast", "all"), default="fast")
    common(p)

    p = sub.add_parser("explore-sl", help="sl of cyclic groups against the conjectured bound")
    p.add_argument("--max-n", type=int, default=16)
    common(p)

    return parser


def _render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return report.to_json()
    prefix = suffix = ""
    if report.command == "sl-table":
        headers = ["group", "order", "expected", "computed", "match"]
        rows = [
            [r["group"], r["order"], r["expected"], r["computed"], "ok" if r["match"] else "MISMATCH"]
            for r in report.payload["rows"]
        ]
    elif report.command == "explore-sl":
        headers = ["n", "sl", "conjecture", "equal", "reference"]
        rows = [
            [r["n"], r["sl"], r["conjecture"], r["equal"], r["reference"] if r["reference"] is not None else "-"]
            for r in report.payload["rows"]
        ]
    elif report.command == "verify-paper":
        headers = ["check", "expected", "computed", "match"]
        rows = [
            [r["name"], r["expected"], r["computed"], "ok" if r["match"] else "MISMATCH"]
            for r in report.payload["rows"]
        ]
    elif report.command == "c5-t17":
        headers = ["row", "col", "expected", "computed", "match"]
        rows = [
            [c["row"], c["col"], c["expected"], c["computed"], "ok" if c["match"] else "MISMATCH"]
            for c in report.payload["cells"]
        ]
    elif report.command == "invariant":
        headers = ["minimal sets", "maximal linked"]
        rows = [[",".join(map(str, s["minimal_sets"])), s["maximal_linked"]] for s in report.payload["systems"]]
        head = [f"count={report.payload['count']}", f"expected={report.payload['expected']}"]
        if "s" in report.payload:
            head += [f"s={report.payload['s']}", f"up_majority={report.payload['up_majority']}"]
        prefix = "  ".join(head) + "\n"
    elif report.command == "lambda":
        headers = ["key", "value"]
        rows = [[k, v] for k, v in report.payload.items() if k not in ("matrix", "elements")]
        if "matrix" in report.payload and fmt != "csv":
            lines = [" ".join(f"{v:3d}" for v in row) for row in report.payload["matrix"]]
            suffix = "\n" + "\n".join(lines)
    else:
        headers = ["key", "value"]
        rows = [[k, v] for k, v in report.payload.items()]
    body = render_rows_csv(headers, rows) if fmt == "csv" else render_rows_text(headers, rows)
    return prefix + body + suffix


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.command == "sl-table":
            report = _timed(lambda: cmd_sl_table(args.max_order))
        elif args.command == "lambda":
            report = _timed(
                lambda: cmd_lambda(
                    args.group, args.what, allow_large=args.allow_large, cache_dir=args.cache_dir
                )
            )
        elif args.command == "invariant":
            report = _timed(lambda: cmd_invariant(args.group, allow_large=args.allow_large))
        elif args.command == "c5-t17":
            report = _timed(cmd_c5_t17)
        elif args.command == "verify-paper":
            report = _timed(lambda: cmd_verify_paper(args.scope))
        else:
            report = _timed(lambda: cmd_explore_sl(args.max_n))
    except GroupParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ConsistencyError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(_render(report, args.format))
    return EXIT_MISMATCH if report.status == "fail" else EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
