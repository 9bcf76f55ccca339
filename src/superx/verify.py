"""The embedded verification suite behind the verify-paper command.

Each check row compares a computed quantity against an expected value,
from |G| for the abstract's ``CLAIMS`` and from :mod:`superx.expected`
for every other row, and carries name/expected/computed/match.
The fast scope covers everything that does not need a Cayley table on
a six-element ground set; the all scope builds those tables too.  The
rows read each tabled group's facts off one pass per process; only the
small tables stay cached, and each 14 MB order-6 table is released.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache

from . import expected as ref
from .c5 import T17_NAMES
from .families import (
    SetFamily,
    generate_family,
    principal_ultrafilter,
)
from .groups import FiniteGroup, build_group
from .invariants import (
    enumerate_invariant_mls,
    odd_equivalences,
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
    maximal_subgroups,
    minimal_ideal,
    right_zeros,
    sampled_associative,
    sqrt_of_idempotents,
    zero,
)
from .superext import (
    build_lambda_table,
    circ,
    element_namer,
    noncommuting_pair,
    orbit_quotient,
    principal_indices,
    system_counts,
    transversal_subsemigroup_search,
)

# Groups whose lambda tables every scope builds; ORDER6_GROUPS need --scope=all.
TABLE_GROUPS = ("C1", "C2", "C3", "C4", "C2xC2", "C5")
ORDER6_GROUPS = ("C6", "D6")


@lru_cache(maxsize=None)
def _group(name: str) -> FiniteGroup:
    """A catalog group, built and validated once per process; ``FiniteGroup`` is frozen."""
    return build_group(name)


@lru_cache(maxsize=None)
def _lambda_table(name: str) -> SemigroupTable:
    """The lambda table of a catalog group of order at most 5, built once per process.

    Several checks read the same tables, and ``_table_facts`` reads each one's facts once; none mutates one.
    Only these small tables stay cached: ``_table_facts`` builds each order-6 table and drops it.
    """
    return build_lambda_table(_group(name))


@lru_cache(maxsize=None)
def _c5_namer():
    """How the reports name the elements of lambda(C5): canonical names, built once per process."""
    return element_namer(_group("C5"), _lambda_table("C5"))


@lru_cache(maxsize=None)
def _table_facts(name: str) -> dict:
    """Every fact the rows read off the lambda table of a tabled group, in one pass per process.

    An order-6 table is built here and dropped once read; only the small tables are checked for commutativity.
    """
    small = name in TABLE_GROUPS
    table = _lambda_table(name) if small else build_lambda_table(_group(name))
    facts = dict(zero=zero(table), order=table.order, right_zeros=right_zeros(table))
    facts["odd"] = odd_equivalences(_group(name), _invariant_systems(name), right_zeros=facts["right_zeros"])
    if small:
        facts["commutative"] = is_commutative(table)[0]
    if name == "C6":
        _, orbits, quotient = orbit_quotient(table)
        facts.update(left_zeros=left_zeros(table), orbit_count=len(orbits), quotient_defined=quotient is not None)
        facts["assoc"] = sampled_associative(table.product, random.Random(664))
    return facts


@lru_cache(maxsize=None)
def _invariant_systems(name: str) -> list[SetFamily]:
    """The invariant systems of a catalog group, enumerated once per process.

    Several checks read the same list; none of them mutates it.
    """
    return enumerate_invariant_mls(_group(name))


def _row(name, expected, computed):
    return {"name": name, "expected": expected, "computed": computed, "match": expected == computed}


def check_system_counts() -> list[dict]:
    """The |lambda(G)| rows, then the orbit rows, as ``lambda --what=count`` reads them: one count per group."""
    names = [f"C{n}" for n in ref.LAMBDA_COUNTS] + ["C2xC2"]
    counts = {name: system_counts(_group(name)) for name in names}
    rows = [_row(f"|lambda({n})|", ref.LAMBDA_COUNTS[_group(n).order], counts[n][0]) for n in names]
    for n in names:
        quotient = "G" if n == "C2xC2" else n
        rows.append(_row(f"|lambda({n})/{quotient}|", ref.LAMBDA_ORBIT_COUNTS[_group(n).order], counts[n][1]))
    return rows


def sl_table_rows(max_order: int = 13) -> list[dict]:
    """sl of every reference group up to max_order against its table value."""
    rows = []
    for name, want in ref.SL_TABLE.items():
        g = _group(name)
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
        _row(f"|invariant({name})|", want, len(_invariant_systems(name)))
        for name, want in ref.INVARIANT_COUNTS.items()
    ]


def check_two_power_s() -> list[dict]:
    rows = []
    for name, s_want in ref.SIM_CLASS_COUNTS.items():
        g = _group(name)
        classes = sim_classes(g)
        rows.append(_row(f"s({name})", s_want, len(classes)))
        up = up_majority_count(g, _invariant_systems(name), classes)
        rows.append(_row(f"upL0({name})", 2**s_want, up))
    return rows


def check_c5_structure() -> list[dict]:
    table = _lambda_table("C5")
    facts = _table_facts("C5")
    name = _c5_namer()
    rows = [
        _row("lambda(C5) zero", "Z", name(facts["zero"])),
        _row(
            "lambda(C5) idempotents",
            sorted(ref.C5_IDEMPOTENT_NAMES),
            sorted(name(i) for i in idempotents(table)),
        ),
        _row(
            "lambda(C5) central",
            sorted(ref.C5_CENTRAL_NAMES),
            sorted(name(i) for i in central_elements(table)),
        ),
        _row("lambda(C5) |sqrtE|", ref.C5_SQRT_IDEMPOTENT_COUNT, len(sqrt_of_idempotents(table))),
        _row(
            "lambda(C5) minimal ideal",
            sorted(ref.C5_MINIMAL_IDEAL_NAMES),
            sorted(name(i) for i in minimal_ideal(table)),
        ),
        _row(
            "lambda(C5) subgroup orders",
            [1, 5],
            sorted({len(h) for h in maximal_subgroups(table).values()}),
        ),
        _row("lambda(C5) commutative", False, facts["commutative"]),
        _row("lambda(C5) transversal", None, transversal_subsemigroup_search(table)),
    ]
    return rows


def t17_cells() -> dict:
    """The c5-t17 verdict: the 289 products ROW o COLUMN of the T17 representatives.

    ``cells`` holds one cell per product (row, col, expected, computed,
    match), with the computed system under its canonical name.  The
    verdict also says whether every cell matches in this orientation and
    in the reversed one, COLUMN o ROW, whether exactly one of them does,
    and which cells mismatch.  The T17 names and every expected cell are
    canonical names, so their indices are read off the namer.
    """
    table = _lambda_table("C5")
    name = _c5_namer()
    index = {name(i): i for i in range(len(table.elements))}
    want = ref.expected_t17_table()
    cells = []
    col_row_match = True
    for r in T17_NAMES:
        ri = index[r]
        for c in T17_NAMES:
            ci = index[c]
            expected = want[(r, c)]
            target = index[expected]
            got = int(table.product[ri, ci])
            cells.append(
                {"row": r, "col": c, "expected": expected, "computed": name(got), "match": got == target}
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
    g3, lam3 = _group("C3"), _lambda_table("C3")
    z = _table_facts("C3")["zero"]
    phi3 = None if z is None else principal_indices(lam3.elements) + [z]
    maps = [("lambda(C3) ~ C3+zero", adjoin_zero(from_group(g3)), lam3, phi3)]
    c2_unit = adjoin_identity(from_group(_group("C2")))
    for name in ("C4", "C2xC2"):
        lam = _lambda_table(name)
        model = direct_product(c2_unit, from_group(_group(name)))
        maps.append((f"lambda({name}) ~ (C2+unit)x{name}", model, lam, _unit_times_group_map(lam)))
    return maps


def check_isomorphisms() -> list[dict]:
    return [
        _row(name, True, phi is not None and is_isomorphism(model, lam, phi))
        for name, model, lam, phi in isomorphism_maps()
    ]


# The abstract's characterizations: lambda(G) has a zero iff |G| is odd and at most 5, is commutative iff
# |G| <= 4, and has a right zero iff every element of G has odd order, that is iff |G| is odd (Cauchy's
# theorem one way, Lagrange's the other).  A claim's label takes a group name, expected(g) is the bool the
# statement fixes from G, and computed(name, tabled) reads the group's value given the scope's tabled groups.
Claim = namedtuple("Claim", "label expected computed")
ZERO_CLAIM, COMMUTATIVE_CLAIM, ODD_CLAIM = CLAIMS = (
    Claim(
        "zero in lambda({})",
        lambda g: g.order % 2 == 1 and g.order <= 5,
        lambda n, _: _table_facts(n)["zero"] is not None,
    ),
    Claim("lambda({}) commutative", lambda g: g.order <= 4, lambda n, _: _table_facts(n)["commutative"]),
    Claim(
        "odd equivalences {}",
        lambda g: g.order % 2 == 1,
        lambda n, tabled: _table_facts(n)["odd"] if n in tabled else odd_equivalences(_group(n), _invariant_systems(n)),
    ),
)


def check_claim(claim: Claim, names: tuple[str, ...], tabled: tuple[str, ...]) -> list[dict]:
    return [_row(claim.label.format(n), claim.expected(_group(n)), claim.computed(n, tabled)) for n in names]


def check_embedding() -> list[dict]:
    """One-point systems multiply exactly like the group elements."""
    rows = []
    for name in TABLE_GROUPS + ORDER6_GROUPS:
        g = _group(name)
        ok = True
        for x in g.elements():
            fx = principal_ultrafilter(g, x)
            for y in g.elements():
                fy = principal_ultrafilter(g, y)
                if circ(g, fx, fy) != principal_ultrafilter(g, g.mul[x][y]):
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
    c6, d6 = _table_facts("C6"), _table_facts("D6")
    return [
        _row("lambda(C6) table order", ref.LAMBDA_COUNTS[6], c6["order"]),
        _row("lambda(C6) right zeros", [], c6["right_zeros"]),
        _row("lambda(C6) left zeros", [], c6["left_zeros"]),
        _row("lambda(C6) orbit count", ref.LAMBDA_ORBIT_COUNTS[6], c6["orbit_count"]),
        _row("lambda(C6) quotient defined", True, c6["quotient_defined"]),
        _row("assoc samples lambda(C6)", True, c6["assoc"]),
        _row("lambda(D6) right zeros", [], d6["right_zeros"]),
        _row("lambda(D6) zero", None, d6["zero"]),
    ]


def run_verification(scope: str = "fast") -> tuple[list[dict], bool]:
    """All checks for the given scope; returns (rows, all_pass)."""
    if scope not in ("fast", "all"):
        raise ValueError("scope must be 'fast' or 'all'")
    rows: list[dict] = []
    rows += check_system_counts()
    rows += check_sl_table()
    rows += check_invariant_counts()
    rows += check_two_power_s()
    rows += check_c5_structure()
    rows += check_t17_table()
    rows += check_isomorphisms()
    tabled = TABLE_GROUPS + (ORDER6_GROUPS if scope == "all" else ())
    rows += check_claim(ZERO_CLAIM, tabled, tabled)
    rows += check_claim(COMMUTATIVE_CLAIM, TABLE_GROUPS, tabled)
    rows.append(_row("boolean-cube witness", True, noncommuting_pair(_group("C2xC2xC2")) is not None))
    rows += check_claim(ODD_CLAIM, ("C1",) + ref.CATALOG_LE8, tabled)
    rows += check_embedding()
    rows += check_property_samples()
    if scope == "all":
        rows += check_order6_tables()
    return rows, all(r["match"] for r in rows)
