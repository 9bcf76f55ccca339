"""Command-line front door.

Commands: sl-table, lambda, invariant, c5-t17, verify-paper, explore-sl.
Each command returns one Report: --format=json prints its record, and the
text and CSV formats are views of the same Report (see reports.Report).
explore-sl --max-n above 16, the group order cap, exits 3 like any other
over-cap input; --max-n and sl-table --max-order below 1 are usage errors.
Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error
(an unusable --cache-dir included), 3 capacity exceeded, 4 internal
invariant failed.
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
    system_counts,
    transversal_subsemigroup_search,
)
from .verify import run_verification, sl_table_rows, t17_cells

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


def _limit(text: str) -> int:
    """The argparse type of --max-order and --max-n: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _ok(match: bool) -> str:
    return "ok" if match else "MISMATCH"


def cmd_sl_table(max_order: int = 13) -> Report:
    rows = sl_table_rows(max_order)
    all_match = all(r["match"] for r in rows)
    return Report(
        command="sl-table",
        status="pass" if all_match else "fail",
        payload={"rows": rows, "all_match": all_match},
        headers=["group", "order", "expected", "computed", "match"],
        rows=[[r["group"], r["order"], r["expected"], r["computed"], _ok(r["match"])] for r in rows],
        head="",
        tail="",
    )


def cmd_lambda(group_name: str, what: str, *, allow_large: bool = False, cache_dir=None) -> Report:
    g = build_group(group_name)
    status, tail = "pass", ""
    if what == "count":
        count, orbit_count = system_counts(g, allow_large=allow_large)
        payload = {"count": count, "orbit_count": orbit_count}
        expected_count = ref.LAMBDA_COUNTS.get(g.order)
        if g.order == 7:
            expected_count = ref.LAMBDA_COUNT_7
        payload["expected_count"] = expected_count
        if g.name == f"C{g.order}" and g.order in ref.LAMBDA_ORBIT_COUNTS:
            payload["expected_orbit_count"] = ref.LAMBDA_ORBIT_COUNTS[g.order]
        mismatched = (
            expected_count is not None and payload["count"] != expected_count
        ) or payload.get("expected_orbit_count") not in (None, payload["orbit_count"])
        status = "fail" if mismatched else "pass"
    elif what == "table":
        directory = resolve_cache_dir(cache_dir)
        directory.mkdir(parents=True, exist_ok=True)  # an unusable directory fails before the build
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
            tail = "\n" + "\n".join(" ".join(f"{v:3d}" for v in row) for row in payload["matrix"])
    elif what == "structure":
        table = build_lambda_table(g)
        labels = table.labels
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
            tr = transversal_subsemigroup_search(table)
            payload["transversal"] = [labels[i] for i in tr] if tr is not None else None
    else:
        raise GroupParseError(f"unknown --what value {what!r}")
    rows = [[k, v] for k, v in payload.items() if k not in ("matrix", "elements")]
    return Report("lambda", group_name, status, payload, headers=["key", "value"], rows=rows, head="", tail=tail)


def cmd_invariant(group_name: str, *, allow_large: bool = False) -> Report:
    g = build_group(group_name)
    systems = enumerate_invariant_mls(g, allow_large=allow_large)
    payload = {
        "count": len(systems),
        "expected": ref.INVARIANT_COUNTS.get(group_name),
        "systems": [
            {
                "minimal_sets": list(s.minimal_sets),
                "maximal_linked": s.is_maximal_linked(),
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
    head = [f"count={payload['count']}", f"expected={payload['expected']}"]
    if "s" in payload:
        head += [f"s={payload['s']}", f"up_majority={payload['up_majority']}"]
    return Report(
        "invariant",
        group_name,
        status,
        payload,
        headers=["minimal sets", "maximal linked"],
        rows=[[",".join(map(str, s["minimal_sets"])), s["maximal_linked"]] for s in payload["systems"]],
        head="  ".join(head) + "\n",
        tail="",
    )


def cmd_c5_t17() -> Report:
    verdict = t17_cells()
    status = "pass" if verdict["row_col_match"] and verdict["exactly_one_orientation"] else "fail"
    return Report(
        "c5-t17",
        "C5",
        status,
        verdict,
        headers=["row", "col", "expected", "computed", "match"],
        rows=[[c["row"], c["col"], c["expected"], c["computed"], _ok(c["match"])] for c in verdict["cells"]],
        head="",
        tail="",
    )


def cmd_verify_paper(scope: str = "fast") -> Report:
    rows, all_pass = run_verification(scope)
    return Report(
        command="verify-paper",
        status="pass" if all_pass else "fail",
        payload={"scope": scope, "rows": rows, "all_pass": all_pass},
        headers=["check", "expected", "computed", "match"],
        rows=[[r["name"], r["expected"], r["computed"], _ok(r["match"])] for r in rows],
        head="",
        tail="",
    )


def cmd_explore_sl(max_n: int = 16) -> Report:
    groups = [build_group(f"C{n}") for n in range(1, max_n + 1)]  # refuse n > 16 before any sl
    rows = []
    for n, g in enumerate(groups, start=1):
        got, conjecture = sl(g), sl_lower_bound(n)
        reference = ref.SL_TABLE.get(f"C{n}")
        rows.append(
            {"n": n, "sl": got, "conjecture": conjecture, "equal": got == conjecture, "reference": reference}
        )
    return Report(
        "explore-sl",
        status="info",
        payload={"rows": rows},
        headers=["n", "sl", "conjecture", "equal", "reference"],
        rows=[
            [r["n"], r["sl"], r["conjecture"], r["equal"], "-" if r["reference"] is None else r["reference"]]
            for r in rows
        ],
        head="",
        tail="",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superx",
        description="Superextension semigroups of small finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    group_help = "group name, e.g. C5, C2xC4, D8, Q8, A4, C3:C4"

    def common(p, run):
        """The option every command takes, and how main runs the command on the parsed args."""
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.set_defaults(run=run)

    p = sub.add_parser("sl-table", help="smallest self-linked set sizes for the catalog")
    p.add_argument("--max-order", type=_limit, default=13)
    common(p, lambda a: cmd_sl_table(a.max_order))

    p = sub.add_parser("lambda", help="system counts, Cayley table or structure for one group")
    p.add_argument("group", help=group_help)
    common(p, lambda a: cmd_lambda(a.group, a.what, allow_large=a.allow_large, cache_dir=a.cache_dir))
    p.add_argument("--what", choices=("count", "table", "structure"), default="count")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--allow-large", action="store_true")

    p = sub.add_parser("invariant", help="maximal invariant linked systems of one group")
    p.add_argument("group", help=group_help)
    common(p, lambda a: cmd_invariant(a.group, allow_large=a.allow_large))
    p.add_argument("--allow-large", action="store_true")

    p = sub.add_parser("c5-t17", help="validate the 17x17 representative table over C5")
    common(p, lambda a: cmd_c5_t17())

    p = sub.add_parser("verify-paper", help="run the embedded verification suite")
    p.add_argument("--scope", choices=("fast", "all"), default="fast")
    common(p, lambda a: cmd_verify_paper(a.scope))

    p = sub.add_parser("explore-sl", help="sl of cyclic groups against the conjectured bound")
    p.add_argument("--max-n", type=_limit, default=16)
    common(p, lambda a: cmd_explore_sl(a.max_n))

    return parser


def _render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return report.to_json()
    if fmt == "csv":
        return report.head + render_rows_csv(report.headers, report.rows)
    return report.head + render_rows_text(report.headers, report.rows) + report.tail


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    start = time.perf_counter()
    try:
        report = args.run(args)
    except (GroupParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ConsistencyError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    report.elapsed_ms = int((time.perf_counter() - start) * 1000)
    print(_render(report, args.format))
    return EXIT_MISMATCH if report.status == "fail" else EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
