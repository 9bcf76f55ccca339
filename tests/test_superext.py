from __future__ import annotations

import copy
import hashlib
import json
import random

import numpy as np
import pytest

from superx import superext
from superx.bitsets import mask_of
from superx.c5 import c5_named_catalog, canonical_names
from superx.cache import load_table, save_table
from superx.errors import CapacityError, ConsistencyError
from superx.families import (
    enumerate_mls,
    extend_to_mls,
    generate_family,
    is_invariant_mls,
    majority_family,
    principal_ultrafilter,
    system_words,
)
from superx.groups import build_group
from superx.invariants import enumerate_invariant_mls
from superx.semigroups import from_group, right_zeros
from superx.superext import (
    build_lambda_table,
    circ,
    is_transversal_subsemigroup,
    orbit_quotient,
    principal_indices,
    quotient_table,
    shift_orbits,
    system_counts,
    transversal_subsemigroup_search,
)
from oracles import find_isomorphism, oracle_translation_indices

SMALL = ("C1", "C2", "C3", "C4", "C2xC2", "C5")


def test_circ_on_principals_is_the_group_operation():
    for name in SMALL + ("C6", "D6"):
        g = build_group(name)
        for x in g.elements():
            fx = principal_ultrafilter(g, x)
            for y in g.elements():
                fy = principal_ultrafilter(g, y)
                want = principal_ultrafilter(g, g.mul[x][y])
                assert circ(g, fx, fy) == want


def test_circ_ground_mismatch():
    g = build_group("C3")
    with pytest.raises(ConsistencyError):
        circ(g, majority_family(build_group("C5")), majority_family(g))


def test_circ_capacity():
    g = build_group("C11")
    with pytest.raises(CapacityError):
        circ(g, majority_family(g), principal_ultrafilter(g, 0))


def test_circ_named_c5_products():
    g = build_group("C5")
    cat = c5_named_catalog()
    lam = cat["Λ"]
    delta = cat["Δ"]
    assert circ(g, delta, delta) == lam
    assert circ(g, delta, circ(g, delta, delta)) == lam
    lam3 = cat["Λ3"]
    assert circ(g, lam3, lam3) == lam
    z = cat["Z"]
    theta, gamma = cat["Θ"], cat["Γ"]
    systems = enumerate_mls(5)
    principal_keys = {principal_ultrafilter(g, x).minimal_sets for x in g.elements()}
    non_principal = [s for s in systems if s.minimal_sets not in principal_keys]
    assert len(non_principal) == 76
    for s in non_principal:
        assert circ(g, s, theta) == z
        assert circ(g, s, gamma) == z


def test_circ_rectangular_on_invariant_systems():
    for name in ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "C7", "D6", "C8", "Q8"):
        g = build_group(name)
        systems = enumerate_invariant_mls(g)
        for a in systems:
            for b in systems:
                assert circ(g, a, b) == b


def _random_mls(g, rng):
    """A maximal linked system grown from a few random pairwise-meeting sets."""
    chosen = []
    for _ in range(4):
        s = rng.randrange(1, 1 << g.order)
        if all(s & t for t in chosen):
            chosen.append(s)
    return extend_to_mls(generate_family(g.order, chosen))


def test_left_translation_commutes_with_the_product():
    """(xA) o B = x(A o B), the identity build_lambda_table fills its rows with."""
    rng = random.Random(12)
    for name in ("C7", "Q8", "D8"):
        g = build_group(name)
        for _ in range(3):
            a, b = _random_mls(g, rng), _random_mls(g, rng)
            assert a.is_maximal_linked() and b.is_maximal_linked()
            ab = circ(g, a, b)
            for x in g.elements():
                assert circ(g, a.shift(g, x), b) == ab.shift(g, x), (name, x)


def test_lambda_table_matches_scalar_circ_exhaustively():
    for name in SMALL:
        g = build_group(name)
        table = build_lambda_table(g)
        systems = table.elements
        index = {s.minimal_sets: i for i, s in enumerate(systems)}
        for i, a in enumerate(systems):
            for j, b in enumerate(systems):
                want = circ(g, a, b)
                assert int(table.product[i, j]) == index[want.minimal_sets]


# sha256 of each table as computed before the product became a fibre GEMM
ORDER6_DIGESTS = {
    "C6": "ca1e466a6b313ddcc33d24c3f4f2cd20fae59ccc64d9591d34d89cd6a0cdb9b5",
    "D6": "23eafa5b3bc3ad5fbc743bec9def668289755c8649446a411a05b781b09bdc6d",
}


def _table_digest(product):
    """sha256 of str(shape), then the rows as little-endian int32."""
    h = hashlib.sha256(str(product.shape).encode())
    h.update(np.ascontiguousarray(product, dtype="<i4").tobytes())
    return h.hexdigest()


def test_order6_tables_pinned_and_match_scalar_circ(lam_table):
    for name, digest in ORDER6_DIGESTS.items():
        g = build_group(name)
        table = lam_table(name)
        assert _table_digest(table.product) == digest, name
        systems = table.elements
        index = {s.minimal_sets: i for i, s in enumerate(systems)}
        rng = random.Random(6)
        for _ in range(300):
            i, j = rng.randrange(table.order), rng.randrange(table.order)
            want = circ(g, systems[i], systems[j])
            assert int(table.product[i, j]) == index[want.minimal_sets], (name, i, j)


def test_lambda_table_closure_and_mls_products():
    # closure is asserted during construction; spot-check products stay maximal linked
    g = build_group("C5")
    table = build_lambda_table(g)
    rng = random.Random(17)
    for _ in range(50):
        a = table.elements[rng.randrange(table.order)]
        b = table.elements[rng.randrange(table.order)]
        prod = circ(g, a, b)
        assert prod.is_maximal_linked()


def test_lambda_table_rejects_a_product_outside_the_system_list(monkeypatch):
    """A representative row whose product is missing from the list still raises."""
    g = build_group("C4")
    full = enumerate_mls(4)
    orbit_of, _ = shift_orbits(g, full)
    kept = [s for i, s in enumerate(full) if orbit_of[i] != orbit_of[3]]
    assert len(kept) == len(full) - 4
    shift_orbits(g, kept)  # still closed under translation
    monkeypatch.setattr(superext, "enumerate_mls", lambda _n: kept)
    with pytest.raises(ConsistencyError, match="a product left the enumerated system space"):
        build_lambda_table(g)


def _sigma(g, systems):
    return superext._translation_indices(g, superext._BitmapIndex(system_words(systems)))


def test_bitmap_index_returns_only_equal_keys():
    """An absent bitmap, the empty family 0 included, finds -1 even where its slot is taken."""
    inverse = pow(int(superext._HASH_MULTIPLIER), -1, 1 << 64)  # hashes to slot 0, like 0 does
    words = np.array([[inverse], [5], [7]], dtype=np.uint64)
    index = superext._BitmapIndex(words)
    assert index.slots[0] == 0
    assert index.find(words).tolist() == [0, 1, 2]
    assert index.find(np.array([[0], [6]], dtype=np.uint64)).tolist() == [-1, -1]
    systems = enumerate_mls(4)
    assert superext._BitmapIndex(system_words(systems[1:])).find(system_words(systems[:1])).tolist() == [-1]


def test_translation_indices_match_the_shift_oracle(lam_table):
    for name in SHIFT_ORBIT_DIGESTS:
        g = build_group(name)
        systems = lam_table(name).elements
        assert _sigma(g, systems).tolist() == oracle_translation_indices(g, systems), name


def _seven_point_systems(g):
    """A translation-closed list of 15 systems on C7: two orbits of 7 and the invariant majority."""
    triangles = ([0, 1], [0, 2], [1, 2]), ([0, 1], [1, 3], [0, 3])
    seeds = [extend_to_mls(generate_family(7, [mask_of(p) for p in t])) for t in triangles]
    seeds.append(majority_family(g))
    return sorted({s.shift(g, x) for s in seeds for x in g.elements()}, key=lambda s: s.minimal_sets)


def test_translation_indices_on_seven_points():
    """Two-word bitmaps: a translation-closed list of a few 7-point systems, not the full enumeration."""
    g = build_group("C7")
    systems = _seven_point_systems(g)
    assert len(systems) == 15
    assert _sigma(g, systems).tolist() == oracle_translation_indices(g, systems)


def test_system_counts_match_the_system_list():
    for name in SHIFT_ORBIT_DIGESTS:
        g = build_group(name)
        systems = enumerate_mls(g.order)
        assert system_counts(g) == (len(systems), len(shift_orbits(g, systems)[1])), name


def test_system_counts_on_seven_points(monkeypatch):
    """Ground 7 counted off a walk of the 15 systems above, given out of sorted order."""
    g = build_group("C7")
    systems = _seven_point_systems(g)
    monkeypatch.setattr(superext, "_walk", lambda n: [s.bitmap for s in reversed(systems)])
    orbit_count = len({min(column) for column in zip(*oracle_translation_indices(g, systems))})
    assert orbit_count == 3
    assert system_counts(g, allow_large=True) == (15, orbit_count)


def test_system_counts_capacity(monkeypatch):
    """Ground 7 without allow_large and ground 8 are refused before the walk; nothing lists ground 7."""
    monkeypatch.setattr(superext, "_walk", lambda n: pytest.fail("walked a refused ground size"))
    with pytest.raises(CapacityError):
        system_counts(build_group("C7"))
    with pytest.raises(CapacityError):
        system_counts(build_group("C8"), allow_large=True)
    with pytest.raises(CapacityError):
        enumerate_mls(7)


def test_lambda_table_capacity():
    with pytest.raises(CapacityError):
        build_lambda_table(build_group("Q8"))


def test_lambda_c2_is_the_group():
    table = build_lambda_table(build_group("C2"))
    assert table.order == 2
    assert find_isomorphism(table, from_group(build_group("C2"))) is not None


def test_lambda_table_order_row():
    assert build_lambda_table(build_group("C4")).order == 12
    assert build_lambda_table(build_group("C5")).order == 81


def test_lambda_table_labels(lam_table, tmp_path):
    """Canonical names label lambda(C5), serialize() every other lambda table, built or loaded."""
    names = canonical_names()
    c5 = lam_table("C5")
    assert c5.labels == [names[s.minimal_sets] for s in c5.elements]
    assert len(set(c5.labels)) == 81
    for name in ("C1", "C4", "C2xC2"):
        table = lam_table(name)
        assert table.labels == [s.serialize() for s in table.elements]
    for name in ("C4", "C5"):
        g = build_group(name)
        save_table(tmp_path, g, lam_table(name))
        assert load_table(tmp_path, g).labels == lam_table(name).labels


def test_associativity_sampled_on_c5():
    p = build_lambda_table(build_group("C5")).product
    rng = random.Random(23)
    for _ in range(10_000):
        a, b, c = rng.randrange(81), rng.randrange(81), rng.randrange(81)
        assert p[p[a, b], c] == p[a, p[b, c]]


def test_principal_indices_embed_group():
    for name in SMALL:
        g = build_group(name)
        table = build_lambda_table(g)
        idx = principal_indices(table.elements)
        for x in g.elements():
            for y in g.elements():
                assert int(table.product[idx[x], idx[y]]) == idx[g.mul[x][y]]


def test_shift_orbit_counts():
    want = {1: 1, 2: 1, 3: 2, 4: 3, 5: 17, 6: 447}
    for n, count in want.items():
        g = build_group(f"C{n}")
        _, orbits = shift_orbits(g, enumerate_mls(n))
        assert len(orbits) == count
    g = build_group("C2xC2")
    _, orbits = shift_orbits(g, enumerate_mls(4))
    assert len(orbits) == 3


# sha256 of json.dumps(shift_orbits(g, enumerate_mls(g.order))): orbit ids,
# orbit order and members, recorded before shift_orbits read shift_table.
SHIFT_ORBIT_DIGESTS = {
    "C1": "7e81841ae664f806f63d61098329e4dc1befc4469544c156365c22b53521df5c",
    "C2": "edea1acdaa0795a9d91e426f03d6366452c0e0cae25fedc3a9299e955689cb5f",
    "C3": "d7d65c39d6f0e89d091323719197fe8179fa207748933041e8dd6b2d5375b34c",
    "C4": "51595ce2d3bb37a18e3f4adf7220440acd73f04f49d13afd0c6754edae87159f",
    "C2xC2": "51595ce2d3bb37a18e3f4adf7220440acd73f04f49d13afd0c6754edae87159f",
    "C5": "bc6d99253a3620d40d050bdfb2c3c7620a9fe3849ee7333ca234a26970530b7c",
    "C6": "08d9094d70736539cd0937ce685e731517a1a91c22f5c753907a1ffee3aae6a4",
    "D6": "29e3cc292b33faeb47576dd8032f3b95caed4b46ec3a985ebe01a014ea35f7fc",
}


def test_shift_orbits_pinned():
    for name, want in SHIFT_ORBIT_DIGESTS.items():
        g = build_group(name)
        got = json.dumps(shift_orbits(g, enumerate_mls(g.order)))
        assert hashlib.sha256(got.encode()).hexdigest() == want, name


def test_one_point_rows_are_the_translations(lam_table, tmp_path):
    """The one-point rows of a built or loaded table are sigma, so its orbits are the pinned ones."""
    tables = [(build_group(name), lam_table(name)) for name in SHIFT_ORBIT_DIGESTS]
    g5 = build_group("C5")
    save_table(tmp_path, g5, lam_table("C5"))
    loaded = load_table(tmp_path, g5)
    assert loaded is not None
    tables.append((g5, loaded))
    for g, table in tables:
        sigma = _sigma(g, table.elements)
        assert np.array_equal(table.product[principal_indices(table.elements)], sigma), g.name
        q = orbit_quotient(table)
        assert (q.orbit_of, q.orbits) == shift_orbits(g, table.elements), g.name


def test_shift_orbits_rejects_a_list_not_closed_under_translation():
    g = build_group("C4")
    systems = enumerate_mls(4)
    moved = next(i for i, s in enumerate(systems) if not is_invariant_mls(g, s))
    with pytest.raises(ConsistencyError, match="translation left the system list"):
        shift_orbits(g, systems[:moved] + systems[moved + 1 :])


def test_orbit_quotient_c5():
    g = build_group("C5")
    table = build_lambda_table(g)
    q = orbit_quotient(table)
    assert q.orbit_count == 17
    p = table.product
    assert all(np.array_equal(p[i], p[:, i]) for i in principal_indices(table.elements))
    assert q.product is not None
    qt = quotient_table(q)  # construction re-checks associativity
    assert qt.order == 17
    # orbit sizes: the zero is fixed, everything else moves freely
    sizes = sorted(len(o) for o in q.orbits)
    assert sizes == [1] + [5] * 16


def test_orbit_quotient_rejects_a_cell_crossing_orbits(lam_table):
    g = build_group("C5")
    table = copy.copy(lam_table("C5"))
    table.product = table.product.copy()
    orbit_of, orbits = shift_orbits(g, table.elements)
    principals = set(principal_indices(table.elements))
    # a non-representative cell between two free orbits without one-point systems
    free = [o for o in orbits if len(o) == 5 and not principals & set(o)]
    a, b = free[0][1], free[1][2]
    moved = next(i for i in range(table.order) if orbit_of[i] != orbit_of[int(table.product[a, b])])
    table.product[a, b] = moved
    with pytest.raises(ConsistencyError):
        orbit_quotient(table)


def test_orbit_quotient_c6_matches_per_pair(lam_table):
    g = build_group("C6")
    table = lam_table("C6")
    q = orbit_quotient(table)
    assert q.orbit_count == 447
    p = table.product
    rng = random.Random(447)
    for _ in range(200):
        qa, qb = rng.randrange(q.orbit_count), rng.randrange(q.orbit_count)
        cells = {q.orbit_of[int(p[a, b])] for a in q.orbits[qa] for b in q.orbits[qb]}
        assert cells == {int(q.product[qa, qb])}


def test_orbit_quotient_c1():
    q = orbit_quotient(build_lambda_table(build_group("C1")))
    assert q.orbit_count == 1


def test_orbit_quotient_noncentral_group_has_no_product(lam_table):
    # one-point systems over a nonabelian group are not central, so the
    # quotient product must be marked absent while orbits still count
    g = build_group("D6")
    table = lam_table("D6")
    q = orbit_quotient(table)
    p = table.product
    assert not all(np.array_equal(p[i], p[:, i]) for i in principal_indices(table.elements))
    assert q.product is None
    # independent orbit count: group systems by their full shift orbits
    systems = lam_table("D6").elements
    seen: set[tuple] = set()
    count = 0
    for s in systems:
        key = tuple(sorted(s.shift(g, x).minimal_sets for x in g.elements()))
        if key not in seen:
            seen.add(key)
            count += 1
    assert q.orbit_count == count == 447
    with pytest.raises(ConsistencyError):
        quotient_table(q)


def test_find_isomorphism_capacity(lam_table):
    with pytest.raises(CapacityError):
        find_isomorphism(lam_table("C5"), lam_table("C5"))


def test_right_zero_systems_against_table(lam_table):
    """The table's right zeros are the systems z with x o z = z under circ, i.e. the invariant ones."""
    for name in SMALL:
        g = build_group(name)
        table = lam_table(name)
        fams = [s for s in table.elements]
        direct = [
            j for j, z in enumerate(fams) if all(circ(g, x, z) == z for x in fams)
        ]
        assert direct == right_zeros(table), name
        invariant = [i for i, s in enumerate(table.elements) if is_invariant_mls(g, s)]
        assert direct == invariant, name


def test_transversal_search_c4():
    g = build_group("C4")
    table = build_lambda_table(g)
    found = transversal_subsemigroup_search(table)
    assert found is not None
    assert is_transversal_subsemigroup(table, found)
    # the documented transversal {1, triangle, square} is itself valid
    index = {s.minimal_sets: i for i, s in enumerate(table.elements)}
    one = index[(1,)]
    triangle = index[generate_family(4, [mask_of([0, 1]), mask_of([0, 3]), mask_of([1, 3])]).minimal_sets]
    square = index[
        generate_family(
            4,
            [mask_of([0, 1]), mask_of([0, 3]), mask_of([0, 2]), mask_of([1, 2, 3])],
        ).minimal_sets
    ]
    assert is_transversal_subsemigroup(table, [one, triangle, square])


def test_transversal_search_c5_absent():
    assert transversal_subsemigroup_search(build_lambda_table(build_group("C5"))) is None


def test_transversal_search_c1_whole():
    table = build_lambda_table(build_group("C1"))
    assert transversal_subsemigroup_search(table) == [0]
