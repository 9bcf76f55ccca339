"""The embedded verification suite behind the verify-paper command.

Each check row compares a computed quantity against a reference value
from :mod:`superx.expected` and carries name/expected/computed/match.
The fast scope covers everything that does not need a Cayley table on
a six-element ground set; the all scope builds those tables too.  Each
table is built at most once per process and shared by the checks.
"""

from __future__ import annotations

import random
from functools import lru_cache

from . import expected as ref
from .c5 import c5_named_catalog, T17_NAMES
from .families import (
    enumerate_mls,
    extend_to_mls,
    generate_family,
    principal_ultrafilter,
)
from .groups import build_group
from .invariants import (
    enumerate_invariant_mls,
    odd_equivalence_report,
    sim_classes,
    sl,
    up_majority_count,
)
from .semigroups import (
    SemigroupTable,
    adjoin_identity,
    adjoin_zero,
    central_elements,
    direct_product,
    from_group,
    idempotents,
    is_commutative,
    is_isomorphism,
    left_zeros,
    maximal_subgroup_at,
    minimal_ideal,
    right_zeros,
    sampled_associative,
    sqrt_of_idempotents,
    zero,
)
from .superext import (
    build_lambda_table,
    circ,
    orbit_quotient,
    principal_indices,
    shift_orbits,
    transversal_subsemigroup_search,
)

# Groups whose lambda tables every scope builds; ORDER6_GROUPS need --scope=all.
TABLE_GROUPS = ("C1", "C2", "C3", "C4", "C2xC2", "C5")
ORDER6_GROUPS = ("C6", "D6")


@lru_cache(maxsize=None)
def _lambda_table(name: str) -> SemigroupTable:
    """The lambda table of a catalog group, built once per process.

    Several checks read the same tables; none of them mutates one.
    """
    return build_lambda_table(build_group(name))


def _row(name, expected, computed):
    return {"name": name, "expected": expected, "computed": computed, "match": expected == computed}


def check_lambda_counts() -> list[dict]:
    rows = []
    for n, want in ref.LAMBDA_COUNTS.items():
        rows.append(_row(f"|lambda(C{n})|", want, len(enumerate_mls(n))))
    rows.append(_row("|lambda(C2xC2)|", ref.LAMBDA_COUNTS[4], len(enumerate_mls(4))))
    return rows


def check_orbit_counts() -> list[dict]:
    rows = []
    for n, want in ref.LAMBDA_ORBIT_COUNTS.items():
        g = build_group(f"C{n}")
        _, orbits = shift_orbits(g, enumerate_mls(n))
        rows.append(_row(f"|lambda(C{n})/C{n}|", want, len(orbits)))
    g = build_group("C2xC2")
    _, orbits = shift_orbits(g, enumerate_mls(4))
    rows.append(_row("|lambda(C2xC2)/G|", ref.LAMBDA_ORBIT_COUNTS[4], len(orbits)))
    return rows


def sl_table_rows(max_order: int = 13) -> list[dict]:
    """sl of every reference group up to max_order against its table value."""
    rows = []
    for name, want in ref.SL_TABLE.items():
        g = build_group(name)
        if g.order > max_order:
            continue
        got = sl(g)
        rows.append(
            {"group": name, "order": g.order, "expected": want, "computed": got, "match": got == want}
        )
    return rows


def check_sl_table() -> list[dict]:
    return [_row(f"sl({r['group']})", r["expected"], r["computed"]) for r in sl_table_rows()]


def check_invariant_counts() -> list[dict]:
    return [
        _row(f"|invariant({name})|", want, len(enumerate_invariant_mls(build_group(name))))
        for name, want in ref.INVARIANT_COUNTS.items()
    ]


def check_two_power_s() -> list[dict]:
    rows = []
    for name, s_want in ref.SIM_CLASS_COUNTS.items():
        g = build_group(name)
        classes = sim_classes(g)
        rows.append(_row(f"s({name})", s_want, classes.s))
        rows.append(_row(f"upL0({name})", 2**s_want, up_majority_count(g, classes=classes)))
    return rows


def check_c5_structure() -> list[dict]:
    table = _lambda_table("C5")
    labels = table.labels
    rows = [
        _row("lambda(C5) zero", "Z", labels[zero(table)]),
        _row(
            "lambda(C5) idempotents",
            sorted(ref.C5_IDEMPOTENT_NAMES),
            sorted(labels[i] for i in idempotents(table)),
        ),
        _row(
            "lambda(C5) central",
            sorted(ref.C5_CENTRAL_NAMES),
            sorted(labels[i] for i in central_elements(table)),
        ),
        _row("lambda(C5) |sqrtE|", ref.C5_SQRT_IDEMPOTENT_COUNT, len(sqrt_of_idempotents(table))),
        _row(
            "lambda(C5) minimal ideal",
            sorted(ref.C5_MINIMAL_IDEAL_NAMES),
            sorted(labels[i] for i in minimal_ideal(table)),
        ),
        _row(
            "lambda(C5) subgroup orders",
            [1, 5],
            sorted({maximal_subgroup_at(table, e).order for e in idempotents(table)}),
        ),
        _row("lambda(C5) commutative", False, is_commutative(table)[0]),
        _row("lambda(C5) transversal", None, transversal_subsemigroup_search(table)),
    ]
    return rows


def t17_cells() -> dict:
    """The c5-t17 verdict: the 289 products ROW o COLUMN of the T17 representatives.

    ``cells`` holds one cell per product (row, col, expected, computed,
    match), with the computed system under its canonical name.  The
    verdict also says whether every cell matches in this orientation and
    in the reversed one, COLUMN o ROW, whether exactly one of them does,
    and which cells mismatch.
    """
    table = _lambda_table("C5")
    catalog = c5_named_catalog()
    index = {s.minimal_sets: i for i, s in enumerate(table.elements)}
    want = ref.expected_t17_table()
    cells = []
    col_row_match = True
    for r in T17_NAMES:
        ri = index[catalog[r].minimal_sets]
        for c in T17_NAMES:
            ci = index[catalog[c].minimal_sets]
            expected = want[(r, c)]
            target = index[catalog[expected].minimal_sets]
            got = int(table.product[ri, ci])
            cells.append(
                {"row": r, "col": c, "expected": expected, "computed": table.labels[got], "match": got == target}
            )
            if int(table.product[ci, ri]) != target:
                col_row_match = False
    mismatches = [c for c in cells if not c["match"]]
    row_col_match = not mismatches
    return {
        "cells": cells,
        "row_col_match": row_col_match,
        "col_row_match": col_row_match,
        "exactly_one_orientation": row_col_match != col_row_match,
        "mismatches": mismatches,
    }


def check_t17_table() -> list[dict]:
    verdict = t17_cells()
    mismatches = verdict["mismatches"]
    rows = [
        _row("T17 row*column cells", 289, len(verdict["cells"]) - len(mismatches)),
        _row("T17 exactly one orientation", True, verdict["exactly_one_orientation"]),
    ]
    if mismatches:
        detail = [f"{c['row']}*{c['col']}: computed {c['computed']}" for c in mismatches[:20]]
        rows.append(_row("T17 mismatched cells", [], detail))
    return rows


def _unit_times_group_map(lam: SemigroupTable) -> list[int] | None:
    """The map (C2+unit) x G -> lambda(G), (a, b) -> b o t_a, or None without a transversal.

    t = (f, h, u) lists a transversal subsemigroup T in the index order of
    ``adjoin_identity(C2)``: u is the one-point system at the identity 0 (the
    one-point member x of T has x o x = x, so it is u), f the idempotent of
    T - {u} and h the other element.  The one-point systems are central
    when G is abelian, so b o t_a is a left translate.
    """
    principal = principal_indices(lam.elements)
    u = principal[0]
    picks = transversal_subsemigroup_search(lam)
    if picks is None or len(picks) != 3 or u not in picks:
        return None
    # an idempotent first; is_isomorphism rejects the map if T - {u} has another shape
    f, h = sorted(set(picks) - {u}, key=lambda x: lam.product[x, x] != x)
    t = (f, h, u)
    return [int(lam.product[x, t[a]]) for a in range(3) for x in principal]


def isomorphism_maps() -> list[tuple[str, SemigroupTable, SemigroupTable, list[int] | None]]:
    """(row name, model, lambda(G), map model -> lambda(G)) for each stated isomorphism.

    Each map keeps the model's index order, so lambda(C3) ~ C3+zero maps
    the group elements to their one-point systems and the zero to the zero.
    """
    g3, lam3 = build_group("C3"), _lambda_table("C3")
    z = zero(lam3)
    phi3 = None if z is None else principal_indices(lam3.elements) + [z]
    maps = [("lambda(C3) ~ C3+zero", adjoin_zero(from_group(g3)), lam3, phi3)]
    c2_unit = adjoin_identity(from_group(build_group("C2")))
    for name in ("C4", "C2xC2"):
        lam = _lambda_table(name)
        model = direct_product(c2_unit, from_group(build_group(name)))
        maps.append((f"lambda({name}) ~ (C2+unit)x{name}", model, lam, _unit_times_group_map(lam)))
    return maps


def check_isomorphisms() -> list[dict]:
    return [
        _row(name, True, phi is not None and is_isomorphism(model, lam, phi))
        for name, model, lam, phi in isomorphism_maps()
    ]


def check_zero_existence(tabled: tuple[str, ...]) -> list[dict]:
    """lambda(G) has a zero iff |G| is odd and at most 5, so C1, C3 and C5 of the catalog.

    One row per tabled group, read off its Cayley table.
    """
    odd_small = ("C1", "C3", "C5")
    return [_row(f"zero in lambda({n})", n in odd_small, zero(_lambda_table(n)) is not None) for n in tabled]


def check_commutativity() -> list[dict]:
    rows = []
    expected = {"C1": True, "C2": True, "C3": True, "C4": True, "C2xC2": True, "C5": False}
    for name, want in expected.items():
        rows.append(_row(f"lambda({name}) commutative", want, is_commutative(_lambda_table(name))[0]))
    rows.append(_row("boolean-cube witness", True, boolean_cube_noncommutativity_witness()))
    return rows


def boolean_cube_noncommutativity_witness() -> bool:
    """Two systems on C2^3 whose products contain disjoint sets.

    Linked families over the generators are greedily completed; the two
    products then separate on bA versus bcA, which are disjoint.
    """
    g = build_group("C2xC2xC2")
    a_el, b_el, c_el = 4, 2, 1
    base = {0, a_el, b_el, a_el ^ b_el ^ c_el}
    h1 = {0, a_el, b_el, a_el ^ b_el}
    h2 = {0, a_el, b_el ^ c_el, a_el ^ b_el ^ c_el}
    mask = lambda pts: sum(1 << p for p in pts)
    xa = lambda x: mask({x ^ p for p in base})

    def completed(h):
        gens = [mask(h1), mask(h2)] + [xa(x) for x in h]
        return extend_to_mls(generate_family(8, gens))

    ext1 = completed(h1)
    ext2 = completed(h2)
    b_a = xa(b_el)
    bc_a = xa(b_el ^ c_el)
    if b_a & bc_a:
        return False
    prod12 = circ(g, ext1, ext2)
    prod21 = circ(g, ext2, ext1)
    return prod12.contains(bc_a) and prod21.contains(b_a) and prod12 != prod21


def check_odd_equivalences(tabled: tuple[str, ...]) -> list[dict]:
    """The odd-order conditions agree on every catalog group of order <= 8.

    The tabled groups also check the right zeros of their lambda table.
    """
    rows = []
    odd_names = {"C1", "C3", "C5", "C7"}
    for name in ("C1",) + ref.CATALOG_LE8:
        g = build_group(name)
        table = _lambda_table(name) if name in tabled else None
        report = odd_equivalence_report(g, lam_table=table)
        rows.append(_row(f"odd equivalences {name}", name in odd_names, report.verdict))
    return rows


def check_embedding() -> list[dict]:
    """One-point systems multiply exactly like the group elements."""
    rows = []
    for name in ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "D6"):
        g = build_group(name)
        ok = True
        for x in g.elements():
            fx = principal_ultrafilter(g, x)
            for y in g.elements():
                fy = principal_ultrafilter(g, y)
                if circ(g, fx, fy) != principal_ultrafilter(g, g.product(x, y)):
                    ok = False
        rows.append(_row(f"embedding {name}", True, ok))
    return rows


def check_property_samples() -> list[dict]:
    """Sampled algebraic properties: associativity and double transversal."""
    rows = []
    rng = random.Random(20_26)
    rows.append(_row("assoc samples lambda(C5)", True, sampled_associative(_lambda_table("C5").product, rng)))
    involution_ok = True
    for _ in range(1_000):
        n = rng.randint(1, 6)
        gens = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 5))]
        fam = generate_family(n, gens)
        if fam.transversal().transversal() != fam:
            involution_ok = False
    rows.append(_row("double transversal", True, involution_ok))
    return rows


def check_order6_tables() -> list[dict]:
    """The expensive block: Cayley tables on six-point grounds."""
    rows = []
    t6 = _lambda_table("C6")
    rows.append(_row("lambda(C6) table order", ref.LAMBDA_COUNTS[6], t6.order))
    rows.append(_row("lambda(C6) right zeros", [], right_zeros(t6)))
    rows.append(_row("lambda(C6) left zeros", [], left_zeros(t6)))
    q = orbit_quotient(t6)
    rows.append(_row("lambda(C6) orbit count", ref.LAMBDA_ORBIT_COUNTS[6], q.orbit_count))
    rows.append(_row("lambda(C6) quotient defined", True, q.product is not None))
    rows.append(_row("assoc samples lambda(C6)", True, sampled_associative(t6.product, random.Random(664))))
    td = _lambda_table("D6")
    rows.append(_row("lambda(D6) right zeros", [], right_zeros(td)))
    rows.append(_row("lambda(D6) zero", None, zero(td)))
    return rows


def run_verification(scope: str = "fast") -> tuple[list[dict], bool]:
    """All checks for the given scope; returns (rows, all_pass)."""
    if scope not in ("fast", "all"):
        raise ValueError("scope must be 'fast' or 'all'")
    rows: list[dict] = []
    rows += check_lambda_counts()
    rows += check_orbit_counts()
    rows += check_sl_table()
    rows += check_invariant_counts()
    rows += check_two_power_s()
    rows += check_c5_structure()
    rows += check_t17_table()
    rows += check_isomorphisms()
    tabled = TABLE_GROUPS + (ORDER6_GROUPS if scope == "all" else ())
    rows += check_zero_existence(tabled)
    rows += check_commutativity()
    rows += check_odd_equivalences(tabled)
    rows += check_embedding()
    rows += check_property_samples()
    if scope == "all":
        rows += check_order6_tables()
    return rows, all(r["match"] for r in rows)
