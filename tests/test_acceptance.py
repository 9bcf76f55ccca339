"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible under ``pytest -s``).
Criterion 3 pins one known defect of the reference data: the embedded
table says sl(D10) = 4, while the true value is 5.  The criterion
asserts that D10 is the only mismatching row, that it computes exactly
5, and that the brute-force oracle agrees; any other drift fails it.
The certificate that 4 is wrong (a pentagon-permutation model of D10
and a pair-counting bound) lives in
test_invariants.test_d10_reference_discrepancy.
"""

from __future__ import annotations

import random
import time

import numpy as np

from superx.c5 import c5_named_catalog, canonical_names, T17_NAMES
from superx.expected import (
    INVARIANT_COUNTS,
    LAMBDA_COUNTS,
    LAMBDA_ORBIT_COUNTS,
    SIM_CLASS_COUNTS,
    SL_TABLE,
    expected_t17_table,
)
from superx.families import (
    enumerate_mls,
    generate_family,
    is_invariant_mls,
    principal_ultrafilter,
)
from superx.groups import build_group
from superx.invariants import (
    enumerate_invariant_mls,
    odd_equivalence_report,
    sim_classes,
    sl,
    up_majority_count,
)
from superx.semigroups import (
    adjoin_identity,
    adjoin_zero,
    central_elements,
    direct_product,
    from_group,
    idempotents,
    is_commutative,
    left_zeros,
    maximal_subgroup_at,
    minimal_ideal,
    right_zeros,
    sqrt_of_idempotents,
    zero,
)
from superx.superext import (
    circ,
    shift_orbits,
    transversal_subsemigroup_search,
)
from superx.verify import boolean_cube_noncommutativity_witness, run_verification
from oracles import (
    find_isomorphism,
    oracle_all_mls,
    oracle_shift_closed_maximal_linked_families,
    oracle_smallest_self_linked,
)

# The reference row sl(D10) = 4 is wrong; (computed, reference) pinned.
KNOWN_SL_DISCREPANCY = {"D10": (5, 4)}


def _criterion(num: int, ok: bool, elapsed: float, message: str, limit: float | None = None):
    status = "PASS" if ok else "FAIL"
    bound = f", limit {limit:.0f}s" if limit is not None else ""
    print(f"ACCEPTANCE {num} {status} ({elapsed:.2f}s{bound}): {message}")
    assert ok, f"criterion {num}: {message}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_lambda_counts():
    start = time.perf_counter()
    got = {n: len(enumerate_mls(n)) for n in range(1, 7)}
    klein = len(enumerate_mls(build_group("C2xC2").order))
    elapsed = time.perf_counter() - start
    ok = got == LAMBDA_COUNTS and klein == 12
    _criterion(1, ok, elapsed, f"lambda counts {got} and C2xC2 -> {klein}", limit=30)


def test_criterion_2_orbit_counts():
    start = time.perf_counter()
    got = {}
    for n in range(1, 7):
        g = build_group(f"C{n}")
        _, orbits = shift_orbits(g, enumerate_mls(n))
        got[n] = len(orbits)
    g = build_group("C2xC2")
    _, orbits = shift_orbits(g, enumerate_mls(4))
    klein = len(orbits)
    elapsed = time.perf_counter() - start
    ok = got == LAMBDA_ORBIT_COUNTS and klein == 3
    _criterion(2, ok, elapsed, f"orbit counts {got} and C2xC2 -> {klein}", limit=60)


def test_criterion_3_sl_table():
    start = time.perf_counter()
    rows = {name: sl(build_group(name)) for name in SL_TABLE}
    d10_oracle = oracle_smallest_self_linked(build_group("D10").mul)
    elapsed = time.perf_counter() - start
    mismatches = {name: (rows[name], SL_TABLE[name]) for name in rows if rows[name] != SL_TABLE[name]}
    ok = mismatches == KNOWN_SL_DISCREPANCY and d10_oracle == rows["D10"]
    _criterion(
        3,
        ok,
        elapsed,
        f"sl table matches the reference on the other {len(rows) - 1} groups; "
        f"known reference defect sl(D10): computed {rows['D10']} (oracle {d10_oracle}), reference {SL_TABLE['D10']}"
        if ok
        else f"sl table mismatches (computed, reference): {mismatches}, "
        f"expected only {KNOWN_SL_DISCREPANCY}; D10 oracle {d10_oracle}",
        limit=10,
    )


def test_criterion_4_invariant_counts():
    start = time.perf_counter()
    got = {name: len(enumerate_invariant_mls(build_group(name))) for name in INVARIANT_COUNTS}
    elapsed = time.perf_counter() - start
    ok = got == INVARIANT_COUNTS
    _criterion(4, ok, elapsed, f"invariant system counts {got}", limit=60)


def test_criterion_5_two_power_s_law():
    start = time.perf_counter()
    ok = True
    detail = {}
    for name, s_want in SIM_CLASS_COUNTS.items():
        g = build_group(name)
        s_got = sim_classes(g).s
        up = up_majority_count(g)
        detail[name] = (s_got, up)
        ok = ok and s_got == s_want and up == 2**s_want
    elapsed = time.perf_counter() - start
    _criterion(5, ok, elapsed, f"s and 2^s per group: {detail}")


def test_criterion_6_lambda_c5_structure(lam_table):
    start = time.perf_counter()
    table = lam_table("C5")
    names = canonical_names()
    label = lambda i: names[table.elements[i].minimal_sets]
    checks = {
        "zero": label(zero(table)) == "Z",
        "idempotents": sorted(label(i) for i in idempotents(table))
        == sorted(["U", "Z", "Λ4", "Λ", "2Λ"]),
        "central": sorted(label(i) for i in central_elements(table))
        == sorted(["U", "U+1", "U+2", "U-2", "U-1", "Z"]),
        "sqrtE": len(sqrt_of_idempotents(table)) == 41,
        "minimal ideal": [label(i) for i in minimal_ideal(table)] == ["Z"],
        "subgroups": all(
            maximal_subgroup_at(table, e).order in (1, 5) for e in idempotents(table)
        )
        and {maximal_subgroup_at(table, e).order for e in idempotents(table)} == {1, 5},
        "transversal": transversal_subsemigroup_search(table) is None,
    }
    elapsed = time.perf_counter() - start
    ok = all(checks.values())
    _criterion(6, ok, elapsed, f"lambda(C5) structure {checks}", limit=30)


def test_criterion_7_t17_table(lam_table):
    start = time.perf_counter()
    table = lam_table("C5")
    catalog = c5_named_catalog()
    index = {s.minimal_sets: i for i, s in enumerate(table.elements)}
    want = expected_t17_table()
    assert len(want) == 289
    row_col = col_row = 0
    mismatches = []
    names = canonical_names()
    for r in T17_NAMES:
        ri = index[catalog[r].minimal_sets]
        for c in T17_NAMES:
            ci = index[catalog[c].minimal_sets]
            target = index[catalog[want[(r, c)]].minimal_sets]
            forward = int(table.product[ri, ci])
            if forward == target:
                row_col += 1
            else:
                mismatches.append(
                    (r, c, want[(r, c)], names[table.elements[forward].minimal_sets])
                )
            if int(table.product[ci, ri]) == target:
                col_row += 1
    elapsed = time.perf_counter() - start
    exactly_one = (row_col == 289) != (col_row == 289)
    ok = row_col == 289 and exactly_one
    message = (
        f"all 289 cells match as row*column (column*row: {col_row}/289)"
        if ok
        else f"mismatched cells: {mismatches}"
    )
    _criterion(7, ok, elapsed, message)


def test_criterion_8_isomorphism_claims(lam_table):
    start = time.perf_counter()
    ok = find_isomorphism(lam_table("C3"), adjoin_zero(from_group(build_group("C3")))) is not None
    c2_unit = adjoin_identity(from_group(build_group("C2")))
    for name in ("C4", "C2xC2"):
        model = direct_product(c2_unit, from_group(build_group(name)))
        ok = ok and find_isomorphism(lam_table(name), model) is not None
    elapsed = time.perf_counter() - start
    _criterion(8, ok, elapsed, "system semigroups isomorphic to the three stated models", limit=5)


def test_criterion_9_zero_commutativity_odd_equivalences(lam_table):
    start = time.perf_counter()
    zero_expect = {
        "C1": True, "C2": False, "C3": True, "C4": False,
        "C2xC2": False, "C5": True, "C6": False, "D6": False,
    }
    zero_got = {name: zero(lam_table(name)) is not None for name in zero_expect}
    commut_expect = {
        "C1": True, "C2": True, "C3": True, "C4": True,
        "C2xC2": True, "C5": False, "C6": False, "D6": False,
    }
    commut_got = {name: is_commutative(lam_table(name))[0] for name in commut_expect}
    witness_ok = boolean_cube_noncommutativity_witness()
    odd_names = {"C1", "C3", "C5", "C7"}
    odd_ok = True
    for name in ("C1",) + tuple(INVARIANT_COUNTS):
        g = build_group(name)
        table = lam_table(name) if g.order <= 6 else None
        report = odd_equivalence_report(g, lam_table=table)  # raises on disagreement
        odd_ok = odd_ok and report.verdict == (name in odd_names)
        if table is not None:
            odd_ok = odd_ok and (report.right_zero_exists == (name in odd_names))
    elapsed = time.perf_counter() - start
    ok = zero_got == zero_expect and commut_got == commut_expect and witness_ok and odd_ok
    _criterion(
        9,
        ok,
        elapsed,
        f"zeros {zero_got}, commutativity {commut_got}, cube witness {witness_ok}, odd equivalences agree",
    )


def test_criterion_10_property_suites(lam_table):
    start = time.perf_counter()
    results = {}

    # associativity: exhaustive on orders <= 4, sampled on 5 and 6
    assoc = True
    for name in ("C1", "C2", "C3", "C4", "C2xC2"):
        p = lam_table(name).product
        assoc = assoc and bool(np.array_equal(p[p, :], p[:, p]))
    rng = random.Random(1010)
    for name in ("C5", "C6"):
        p = lam_table(name).product
        m = p.shape[0]
        assoc = assoc and all(
            p[p[a, b], c] == p[a, p[b, c]]
            for a, b, c in ((rng.randrange(m), rng.randrange(m), rng.randrange(m)) for _ in range(10_000))
        )
    results["associativity"] = assoc

    # transversal involution: exhaustive antichains n<=4, 1000 random n<=6
    involution = True
    for n in range(1, 5):
        subsets = list(range(1, 1 << n))
        for picks in range(1, 1 << len(subsets)):
            chosen = [subsets[i] for i in range(len(subsets)) if picks >> i & 1]
            if any(a != b and a & b == a for a in chosen for b in chosen):
                continue
            fam = generate_family(n, chosen)
            involution = involution and fam.transversal().transversal() == fam
    for _ in range(1_000):
        n = rng.randint(1, 6)
        fam = generate_family(n, [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 6))])
        involution = involution and fam.transversal().transversal() == fam
    results["involution"] = involution

    # product closure: exhaustive through order 5 (construction verifies
    # every product lands on an enumerated system), sampled re-check on C5
    closure = True
    for name in ("C1", "C2", "C3", "C4", "C2xC2", "C5"):
        closure = closure and lam_table(name).order == len(enumerate_mls(build_group(name).order))
    g5 = build_group("C5")
    systems5 = lam_table("C5").elements
    for _ in range(100):
        a = systems5[rng.randrange(81)]
        b = systems5[rng.randrange(81)]
        prod = circ(g5, a, b)
        closure = closure and prod.is_maximal_linked()
    results["closure"] = closure

    # one-point systems reproduce the group operation
    embed = True
    for name in ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "D6"):
        g = build_group(name)
        for x in g.elements():
            for y in g.elements():
                prod = circ(g, principal_ultrafilter(g, x), principal_ultrafilter(g, y))
                embed = embed and prod == principal_ultrafilter(g, g.mul[x][y])
    results["embedding"] = embed

    # right zeros coincide with translation-invariant systems, and left
    # zeros only exist alongside a two-sided zero (order <= 6)
    rz = True
    for name in ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "D6"):
        g = build_group(name)
        table = lam_table(name)
        invariant = [i for i, s in enumerate(table.elements) if is_invariant_mls(g, s)]
        rz = rz and right_zeros(table) == invariant
        lz = left_zeros(table)
        z = zero(table)
        rz = rz and (lz == [] if z is None else lz == [z])
    results["right zeros"] = rz

    # invariant systems multiply rectangularly (catalog of order <= 8)
    rect = True
    for name in ("C1",) + tuple(INVARIANT_COUNTS):
        g = build_group(name)
        systems = enumerate_invariant_mls(g)
        for a in systems:
            for b in systems:
                rect = rect and circ(g, a, b) == b
    results["rectangularity"] = rect

    # enumerator oracles
    results["mls oracle"] = all(
        [s.minimal_sets for s in enumerate_mls(n)] == oracle_all_mls(n) for n in range(1, 5)
    )
    inv_oracle = True
    for name in ("C1", "C2", "C3", "C4", "C2xC2", "C5"):
        g = build_group(name)
        got = sorted(s.minimal_sets for s in enumerate_invariant_mls(g))
        inv_oracle = inv_oracle and got == oracle_shift_closed_maximal_linked_families(g)
    results["invariant oracle"] = inv_oracle

    # the full verification sweep finishes inside ten minutes
    sweep_start = time.perf_counter()
    rows, _ = run_verification("all")
    sweep = time.perf_counter() - sweep_start
    unexpected = [r["name"] for r in rows if not r["match"] and r["name"] != "sl(D10)"]
    results["verify sweep"] = sweep < 600 and not unexpected

    elapsed = time.perf_counter() - start
    ok = all(results.values())
    _criterion(10, ok, elapsed, f"property suites {results} (verify-paper all: {sweep:.1f}s)")
