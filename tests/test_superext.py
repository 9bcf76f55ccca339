from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import replace

import numpy as np
import pytest

from superx import families, superext
from superx.bitsets import iter_bits, mask_of
from superx.c5 import c5_named_catalog, canonical_names
from superx.cache import load_table, save_table
from superx.errors import CapacityError, ConsistencyError
from superx.expected import SL_TABLE
from superx.families import (
    enumerate_mls,
    family_from_bitmap,
    generate_family,
    majority_family,
    principal_ultrafilter,
    SetFamily,
)
from superx.groups import build_group
from superx.invariants import enumerate_invariant_mls
from superx.semigroups import from_group, is_commutative, is_isomorphism, right_zeros
from superx.superext import (
    build_lambda_table,
    circ,
    element_namer,
    is_transversal_subsemigroup,
    noncommuting_pair,
    orbit_quotient,
    principal_indices,
    system_counts,
    transversal_subsemigroup_search,
)
from oracles import (
    find_isomorphism,
    fresh_interpreter,
    is_invariant_mls,
    oracle_extend_to_mls,
    oracle_isomorphisms,
    oracle_lambda_map,
    oracle_shift,
    oracle_translate,
    oracle_translation_indices,
    quotient_table,
    table_digest,
    traced_peak,
    words_of,
)

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
    """The families' 12-point cap is circ's one limit: a 13-point family is refused before circ is reached."""
    g13 = build_group("C13")
    with pytest.raises(CapacityError):
        principal_ultrafilter(g13, 0)
    with pytest.raises(CapacityError):
        SetFamily(13, (1,))
    g = build_group("C12")
    for x, y in ((1, 1), (5, 11)):
        assert circ(g, principal_ultrafilter(g, x), principal_ultrafilter(g, y)) == principal_ultrafilter(g, g.mul[x][y])


def test_noncommuting_pair_certifies_non_commutativity(lam_table):
    """The first non-commuting pair of triangle systems exists exactly where lambda(G) is not commutative."""
    for name in SL_TABLE:
        g = build_group(name)
        if 5 <= g.order <= 12:
            a, b = noncommuting_pair(g)
            assert a.is_maximal_linked() and b.is_maximal_linked(), name
            assert circ(g, a, b) != circ(g, b, a), name
    for name in ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "D6"):
        assert (noncommuting_pair(build_group(name)) is None) == is_commutative(lam_table(name))[0], name
    for name in ("C5", "C6", "D6"):
        g, table = build_group(name), lam_table(name)
        a, b = noncommuting_pair(g)
        i, j = table.elements.index(a), table.elements.index(b)
        p = table.product
        assert p[i, j] != p[j, i], name
        assert table.elements[p[i, j]] == circ(g, a, b) and table.elements[p[j, i]] == circ(g, b, a), name


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
    return family_from_bitmap(g.order, oracle_extend_to_mls(chosen, g.order))


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
                assert circ(g, oracle_shift(a, g, x), b) == oracle_shift(ab, g, x), (name, x)


def _opposite(g):
    """g with x.y = yx: its left translations are g's right translations, same inverses."""
    return replace(g, mul=tuple(zip(*g.mul)))


def test_right_translation_commutes_with_the_product():
    """A o (By) = (A o B)y, the identity build_lambda_table spreads its core cells with."""
    rng = random.Random(13)
    for name in ("C7", "Q8", "D8"):
        g = build_group(name)
        op = _opposite(g)
        for _ in range(3):
            a, b = _random_mls(g, rng), _random_mls(g, rng)
            assert a.is_maximal_linked() and b.is_maximal_linked()
            ab = circ(g, a, b)
            for y in g.elements():
                assert circ(g, a, oracle_shift(b, op, y)) == oracle_shift(ab, op, y), (name, y)


@pytest.mark.parametrize(
    "source, target, count",
    [("C3", "C3", 2), ("C4", "C4", 2), ("C2xC2", "C2xC2", 6), ("C5", "C5", 4), ("C6", "C6", 2), ("D6", "D6", 6),
     ("C6", "C2xC3", 2)],
)
def test_group_isomorphisms_map_lambda_tables_isomorphically(lam_table, source, target, count):
    """lambda is a functor: every isomorphism phi: G -> H gives an isomorphism A -> {phi(C) : C in A}.

    The tables are built on different layouts and generators (C6 and C2xC3
    differ in both), so this also shows the build does not depend on them.
    """
    g, h = build_group(source), build_group(target)
    lam_g, lam_h = lam_table(source), lam_table(target)
    maps = oracle_isomorphisms(g, h)
    assert len(maps) == count
    points_g, points_h = principal_indices(lam_g.elements), principal_indices(lam_h.elements)
    for phi in maps:
        image = oracle_lambda_map(lam_g.elements, lam_h.elements, phi)
        assert [image[i] for i in points_g] == [points_h[y] for y in phi]  # it extends phi to lambda(G)
        assert is_isomorphism(lam_g, lam_h, image), phi


def test_lambda_map_check_rejects_a_changed_core_cell(lam_table):
    """Changing the product of two systems that are not one-point, in a copy of lambda(C2xC3), breaks the map."""
    lam_g, lam_h = lam_table("C6"), lam_table("C2xC3")
    phi = oracle_isomorphisms(build_group("C6"), build_group("C2xC3"))[0]
    image = oracle_lambda_map(lam_g.elements, lam_h.elements, phi)
    assert is_isomorphism(lam_g, lam_h, image)
    core = sorted(set(range(lam_h.order)) - set(principal_indices(lam_h.elements)))
    tampered = copy.copy(lam_h)
    tampered.product = lam_h.product.copy()
    a, b = core[0], core[-1]
    tampered.product[a, b] = (int(lam_h.product[a, b]) + 1) % lam_h.order
    assert not is_isomorphism(lam_g, tampered, image)


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


def test_order6_tables_pinned_and_match_scalar_circ(lam_table):
    for name, digest in ORDER6_DIGESTS.items():
        g = build_group(name)
        table = lam_table(name)
        assert table_digest(table.product) == digest, name
        systems = table.elements
        index = {s.minimal_sets: i for i, s in enumerate(systems)}
        rng = random.Random(6)
        for _ in range(300):
            i, j = rng.randrange(table.order), rng.randrange(table.order)
            want = circ(g, systems[i], systems[j])
            assert int(table.product[i, j]) == index[want.minimal_sets], (name, i, j)


def test_order6_tables_are_exact_on_a_two_thread_blas():
    """The limb sums are exact whatever order the BLAS adds in: a two-thread OpenBLAS pool builds the pinned tables.

    The session's own tables run on the one thread superx defaults to, so
    the pool is set in a fresh interpreter, before numpy loads.
    """
    code = (
        "from superx import build_group, build_lambda_table\n"
        "from oracles import table_digest\n"
        f"for name in {sorted(ORDER6_DIGESTS)!r}:\n"
        "    print(name, table_digest(build_lambda_table(build_group(name)).product))\n"
    )
    proc = fresh_interpreter(["-c", code], {"OPENBLAS_NUM_THREADS": "2"}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert dict(line.split() for line in proc.stdout.splitlines()) == ORDER6_DIGESTS


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
    """A core cell whose product is missing from the list still raises, on C4 and on non-abelian D6.

    The removed systems are one orbit under translation on both sides, so
    the list stays closed under sigma and rho and only the core check fires.
    """
    for name, seed, size in (("C4", 3, 4), ("D6", 6, 18)):
        g = build_group(name)
        full = enumerate_mls(g.order)
        sigma, rho = _sigma(g, full), _sigma(_opposite(g), full)
        removed = set(sigma[:, rho[:, seed]].ravel().tolist())  # x systems[seed] y for all x, y
        assert len(removed) == size
        kept = [s for i, s in enumerate(full) if i not in removed]
        _sigma(g, kept), _sigma(_opposite(g), kept)  # still closed under translation on both sides
        shared = families._SystemList(words_of([s.bitmap for s in kept], g.order), g.order)
        monkeypatch.setattr(superext, "enumerate_mls", lambda _n, shared=shared: shared)
        with pytest.raises(ConsistencyError, match="a product left the enumerated system space"):
            build_lambda_table(g)


def test_the_spread_writes_every_cell_of_the_empty_table():
    """On every tabled group sigma[:, reps] covers all m rows and rho[:, rreps] all m columns.

    reps and rreps are the column minima of sigma and rho, as the build picks
    them, so the rows it writes, whole, are every row of the np.empty table,
    and the column map it reads them through is defined on every column.
    """
    for name in SMALL + ("C6", "D6"):
        g = build_group(name)
        systems = enumerate_mls(g.order)
        for side in (g, _opposite(g)):
            shifts = _sigma(side, systems)
            reps = np.flatnonzero(shifts.min(axis=0) == np.arange(len(systems)))
            assert np.array_equal(np.unique(shifts[:, reps]), np.arange(len(systems))), name


class _Unread(np.ndarray):
    """A block of core cells that fails the test if the build iterates or indexes it."""

    def __iter__(self):
        raise AssertionError("a core row was read before the range check")

    def __getitem__(self, key):
        raise AssertionError("a core row was read before the range check")


def test_lambda_table_checks_a_core_block_before_reading_it(monkeypatch):
    """_SystemIndex.find returning -1 for one core product raises ConsistencyError before any row of its block is read."""
    find = superext._SystemIndex.find

    def faulty(index, bitmaps):
        rows = find(index, bitmaps)
        if rows.ndim == 1:  # sigma and rho
            return rows
        rows[-1, -1] = -1
        return rows.view(_Unread)

    monkeypatch.setattr(superext._SystemIndex, "find", faulty)
    for name in ("C6", "D6"):
        with pytest.raises(ConsistencyError, match="a product left the enumerated system space"):
            build_lambda_table(build_group(name))


_COUNTED = (
    "import sys\n"
    "from collections import Counter\n"
    "from superx import build_group, build_lambda_table, cli, families\n"
    "derived, bulk, _derived, _bulk = Counter(), Counter(), families._derived, families._families_of_bitmaps\n"
    "families._derived = lambda n, *rest: derived.update([n]) or _derived(n, *rest)\n"
    "families._families_of_bitmaps = lambda words, n: bulk.update([n]) or _bulk(words, n)\n"
)


def _cold_counts(code, *args):
    """The ground-6 counts a fresh interpreter prints after running code: families._derived calls, then the
    shared sequence's bulk builds.  superx.cli is imported first, so invariants keeps its own binding of
    _families_of_bitmaps for its closure pass and only the system sequence's bulk builds are counted."""
    script = _COUNTED + code + "print(derived[6], bulk[6])\n"
    proc = fresh_interpreter(["-c", script, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return [int(v) for v in proc.stdout.split()]


def test_cold_commands_derive_only_the_systems_they_read(tmp_path):
    """Exact ground-6 counts, each in a fresh interpreter.

    Building lambda(C6) and lambda(D6) reads only the words: no family.  A
    ``lambda C6 --what=table`` miss and the hit after it build none either,
    as the cache digest hashes the words.  ``lambda C6 --what=structure``
    builds the 51 systems it names or looks up, and ``verify-paper
    --scope=all`` never builds the ground-6 sequence in bulk.
    """
    table_code = (
        "for name in ('C6', 'D6'):\n"
        "    build_lambda_table(build_group(name))\n"
        "print(derived[6], bulk[6])\n"
        "hits = [cli.cmd_lambda('C6', 'table', cache_dir=sys.argv[1]).payload['cache_hit'] for _ in range(2)]\n"
        "assert hits == [False, True], hits\n"
    )
    assert _cold_counts(table_code, str(tmp_path)) == [0, 0, 0, 0]
    assert _cold_counts("cli.cmd_lambda('C6', 'structure')\n") == [51, 0]
    verify_code = "assert not cli.cmd_verify_paper('all').payload['all_pass']\n"  # the sl(D10) row
    assert _cold_counts(verify_code)[1] == 0


def _generators(g):
    """Each least element outside the subgroup generated by those before it, closed by brute force."""
    reached, gens = {0}, []
    for x in g.elements():
        if x not in reached:
            gens.append(x)
            while (grown := reached | {g.mul[a][b] for a in reached | {x} for b in reached | {x}}) != reached:
                reached = grown
    return gens


def _counted_lookups(monkeypatch):
    """The number of bitmaps each _SystemIndex.find call resolves, in call order."""
    find = superext._SystemIndex.find
    lookups = []
    monkeypatch.setattr(superext._SystemIndex, "find", lambda index, q: lookups.append(np.size(q)) or find(index, q))
    return lookups


def test_lambda_table_resolves_only_the_core_cells(monkeypatch):
    """m queries per generator for each of sigma and rho, then 447 x 447 products: no fallback to all columns."""
    queries = _counted_lookups(monkeypatch)
    for name in ("C6", "D6"):
        queries.clear()
        g = build_group(name)
        m = build_lambda_table(g).order
        generators = len(_generators(g)) + len(_generators(_opposite(g)))
        assert generators < g.order
        assert sum(queries) == generators * m + 447 * 447, name


def _sigma(g, systems):
    return superext._translation_indices(g, _index(systems))


def _index(systems):
    return superext._SystemIndex(words_of([s.bitmap for s in systems], systems[0].ground_size)[:, 0], systems[0].ground_size)


def test_system_index_matches_a_dict_oracle():
    """Grounds 1-6: every system, each with one bit flipped, seeded random words, 0, and halves of two systems.

    The last query has a listed system's quarters G0 and G1 but another's upper
    half, so only the word compare can reject it; a list missing a system finds -1 for it.
    """
    rng = random.Random(20261019)
    for n in range(1, 7):
        bitmaps = [s.bitmap for s in enumerate_mls(n)]
        oracle = {b: i for i, b in enumerate(bitmaps)}
        half = (1 << (1 << n >> 1)) - 1
        queries = list(bitmaps) + [b ^ 1 << c for b in bitmaps for c in range(1 << n)]
        queries += [rng.getrandbits(1 << n) for _ in range(1000)] + [0]
        mixed = [bitmaps[0] & half | b & ~half for b in bitmaps[1:]]
        assert all(m not in oracle and m & half in {b & half for b in bitmaps} for m in mixed), n
        queries += mixed
        index = _index(enumerate_mls(n))
        found = index.find(np.array(queries, dtype=np.uint64)).tolist()
        assert found == [oracle.get(q, -1) for q in queries], n
        assert found[: len(bitmaps)] == list(range(len(bitmaps))) and -1 in found, n
        if n > 1:
            absent = _index(enumerate_mls(n)[1:]).find(np.array(bitmaps[:1], dtype=np.uint64))
            assert absent.tolist() == [-1], n


def test_translation_indices_match_the_shift_oracle(lam_table):
    for name in SHIFT_ORBIT_DIGESTS:
        g = build_group(name)
        systems = lam_table(name).elements
        assert _sigma(g, systems).tolist() == oracle_translation_indices(g, systems), name


def test_translation_indices_translate_only_a_generating_set(lam_table, monkeypatch):
    """One bitmap lookup per generator on each side; every other row of sigma and rho is composed, and all match the oracle."""
    lookups = _counted_lookups(monkeypatch)
    for name in SHIFT_ORBIT_DIGESTS:
        g, systems = build_group(name), lam_table(name).elements
        for side in (g, _opposite(g)):
            lookups.clear()
            sigma = _sigma(side, systems)
            assert lookups == [len(systems)] * len(_generators(side)), name
            assert sigma.tolist() == oracle_translation_indices(side, systems), name


def _seven_point_systems(g):
    """A translation-closed list of 15 systems on C7: two orbits of 7 and the invariant majority."""
    triangles = ([0, 1], [0, 2], [1, 2]), ([0, 1], [1, 3], [0, 3])
    seeds = [generate_family(7, [mask_of(p) for p in t]) for t in triangles]  # maximal linked as they stand
    assert all(s.is_maximal_linked() for s in seeds)
    seeds.append(majority_family(g))
    return sorted({oracle_shift(s, g, x) for s in seeds for x in g.elements()}, key=lambda s: s.minimal_sets)


def test_translated_word_zero_on_seven_points():
    """Two-word bitmaps: word 0 of each translate is its sets below 64, some of them moved down from word 1."""
    g = build_group("C7")
    systems = _seven_point_systems(g)
    assert len(systems) == 15
    words = words_of([s.bitmap for s in systems], 7)
    from_word_one = 0
    for x in g.elements():
        want = []
        for s in systems:
            moved = [(c, t) for c in iter_bits(s.bitmap) if (t := oracle_translate(g.mul, x, c)) < 64]
            from_word_one += sum(c >= 64 for c, _ in moved)
            want.append(sum(1 << t for _, t in moved))
        assert superext._translated(g, x, words).tolist() == want, x
    assert from_word_one > 0


def test_system_counts_match_the_system_list(lam_table):
    """The counts off the shared words equal the table's order and its one-point-row orbits."""
    for name in SHIFT_ORBIT_DIGESTS:
        table = lam_table(name)
        assert system_counts(build_group(name)) == (table.order, len(orbit_quotient(table)[1])), name


def test_system_counts_on_seven_points(monkeypatch):
    """Ground 7 counted off the words of the 15 systems above, given out of sorted order; one fewer is refused."""
    g = build_group("C7")
    systems = _seven_point_systems(g)
    monkeypatch.setattr(superext, "_system_words", lambda n: words_of([s.bitmap for s in reversed(systems)], n))
    orbit_count = len({min(column) for column in zip(*oracle_translation_indices(g, systems))})
    assert orbit_count == 3
    assert system_counts(g, allow_large=True) == (15, orbit_count)
    moving = next(s for s in systems if not is_invariant_mls(g, s))
    kept = [s for s in systems if s != moving]
    monkeypatch.setattr(superext, "_system_words", lambda n: words_of([s.bitmap for s in kept], n))
    with pytest.raises(ConsistencyError, match="translation left the system list"):
        system_counts(g, allow_large=True)


def test_system_counts_capacity(monkeypatch):
    """Ground 7 without allow_large and ground 8 are refused before enumerating; nothing lists ground 7."""
    for module in (superext, families):
        monkeypatch.setattr(module, "_system_words", lambda n: pytest.fail("enumerated a refused ground size"))
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


def test_element_namer(lam_table, tmp_path):
    """Canonical names print lambda(C5), serialize() every other lambda table (C5xC1 too), built or loaded."""
    names = canonical_names()
    for name in ("C1", "C4", "C2xC2", "C5xC1", "C5"):
        g = build_group(name)
        save_table(tmp_path, g, lam_table(name))
        for table in (lam_table(name), load_table(tmp_path, g)):
            namer = element_namer(g, table)
            printed = [namer(i) for i in range(table.order)]
            if name == "C5":
                assert printed == [names[s.minimal_sets] for s in table.elements]
                assert len(set(printed)) == 81
            else:
                assert printed == [s.serialize() for s in table.elements]


def test_build_serializes_no_system(monkeypatch):
    """A build stores systems, not their text: lambda(C6) makes no serialize() call."""
    calls = []
    serialize = SetFamily.serialize
    monkeypatch.setattr(SetFamily, "serialize", lambda s: calls.append(s) or serialize(s))
    table = build_lambda_table(build_group("C6"))
    assert table.order == 2646 and calls == []


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


def test_shift_orbit_counts(lam_table):
    """Counted off the enumerator's words without a table, and off each table's one-point rows."""
    want = {"C1": 1, "C2": 1, "C3": 2, "C4": 3, "C2xC2": 3, "C5": 17, "C6": 447}
    for name, count in want.items():
        assert system_counts(build_group(name))[1] == count, name
        assert len(orbit_quotient(lam_table(name))[1]) == count, name


# sha256 of json.dumps([orbit_of, orbits]) of each table's orbit_quotient: orbit
# ids, orbit order and members, recorded off sigma from a system list, before
# that read shift_table.
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


def test_shift_orbits_pinned(lam_table):
    for name, want in SHIFT_ORBIT_DIGESTS.items():
        orbit_of, orbits, _ = orbit_quotient(lam_table(name))
        got = json.dumps([orbit_of, orbits])
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
        assert orbit_quotient(table)[:2] == superext._orbits(sigma), g.name


def test_one_point_columns_are_the_right_translations(lam_table):
    """A o delta_y = Ay: rho is the one-point columns and moves every cell, (A o B)y = A o (By)."""
    for name in SHIFT_ORBIT_DIGESTS:
        g = build_group(name)
        table = lam_table(name)
        p = table.product
        rho = _sigma(_opposite(g), table.elements)
        assert rho.tolist() == oracle_translation_indices(_opposite(g), table.elements), name
        assert np.array_equal(rho, p[:, principal_indices(table.elements)].T), name
        for y, shift in enumerate(rho):
            assert np.array_equal(p[:, shift], shift[p]), (name, y)


def _one_point_sigma(table):
    """sigma[x, j], the index of x * element j, read off the one-point rows: delta_x o A = xA."""
    return table.product[principal_indices(table.elements)]


def _fixed_points(sigma):
    """Fix(x): the number of columns j with sigma[x, j] = j."""
    return np.count_nonzero(sigma == np.arange(sigma.shape[1]), axis=1).tolist()


def test_burnside_counts_the_orbits_off_the_one_point_rows(lam_table):
    """n * |lambda(G)/G| = sum of Fix(x), with the orbit count taken from system_counts, not the table."""
    for name in SHIFT_ORBIT_DIGESTS:
        g = build_group(name)
        sigma = _one_point_sigma(lam_table(name))
        orbit_count = system_counts(g)[1]
        assert sum(_fixed_points(sigma)) == g.order * orbit_count, name
        if orbit_count > 1:  # swapping two columns from different orbits removes their fixed points
            j = int(np.flatnonzero(~np.isin(np.arange(sigma.shape[1]), sigma[:, 0]))[0])
            swapped = sigma.copy()
            swapped[:, [0, j]] = swapped[:, [j, 0]]
            assert sum(_fixed_points(swapped)) < g.order * orbit_count, name
    assert _fixed_points(_one_point_sigma(lam_table("C6"))) == [2646, 0, 18, 0, 18, 0]
    assert _fixed_points(_one_point_sigma(lam_table("D6"))) == [2646, 18, 18, 0, 0, 0]


def test_involutions_fix_no_system(lam_table):
    """A holding one point of each coset {a, ta} and tA = X \\ A: a system holds one of them, and t moves it."""
    for name in SHIFT_ORBIT_DIGESTS:
        g = build_group(name)
        fixed = _fixed_points(_one_point_sigma(lam_table(name)))
        involutions = [t for t in g.elements() if t and not g.mul[t][t]]
        assert involutions or g.order % 2, name
        assert [fixed[t] for t in involutions] == [0] * len(involutions), name


def test_sigma_fixed_systems_are_the_maximal_linked_invariant_systems(lam_table):
    """Two enumerators agree: the columns every x fixes, and the clique search's maximal linked families."""
    counts = {}
    for name in SHIFT_ORBIT_DIGESTS:
        g = build_group(name)
        table = lam_table(name)
        sigma = _one_point_sigma(table)
        columns = np.flatnonzero((sigma == np.arange(table.order)).all(axis=0))
        fixed = {table.elements[j].minimal_sets for j in columns}
        invariant = {s.minimal_sets for s in enumerate_invariant_mls(g) if s.is_maximal_linked()}
        assert fixed == invariant, name
        counts[name] = len(fixed)
    assert counts == {"C1": 1, "C2": 0, "C3": 1, "C4": 0, "C2xC2": 0, "C5": 1, "C6": 0, "D6": 0}


def test_translation_indices_reject_a_list_not_closed_under_translation():
    g = build_group("C4")
    systems = enumerate_mls(4)
    moved = next(i for i, s in enumerate(systems) if not is_invariant_mls(g, s))
    with pytest.raises(ConsistencyError, match="translation left the system list"):
        _sigma(g, systems[:moved] + systems[moved + 1 :])


def test_orbit_quotient_c5():
    g = build_group("C5")
    table = build_lambda_table(g)
    _, orbits, quotient = orbit_quotient(table)
    assert len(orbits) == 17
    p = table.product
    assert all(np.array_equal(p[i], p[:, i]) for i in principal_indices(table.elements))
    assert quotient is not None
    qt = quotient_table(orbits, quotient)  # construction re-checks associativity
    assert qt.order == 17
    # orbit sizes: the zero is fixed, everything else moves freely
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [1] + [5] * 16


def test_orbit_quotient_rejects_a_cell_crossing_orbits(lam_table):
    g = build_group("C5")
    table = copy.copy(lam_table("C5"))
    table.product = table.product.copy()
    orbit_of, orbits = superext._orbits(_sigma(g, table.elements))
    principals = set(principal_indices(table.elements))
    # a non-representative cell between two free orbits without one-point systems
    free = [o for o in orbits if len(o) == 5 and not principals & set(o)]
    a, b = free[0][1], free[1][2]
    moved = next(i for i in range(table.order) if orbit_of[i] != orbit_of[int(table.product[a, b])])
    table.product[a, b] = moved
    with pytest.raises(ConsistencyError):
        orbit_quotient(table)


def test_orbit_quotient_rejects_a_crossing_cell_in_the_first_and_the_last_chunk_of_c6(lam_table):
    """lambda(C6) is checked in chunks of superext._ROW_CHUNK rows, the last one partial.

    A cell moved to another orbit raises in either end chunk.  Rows 0, 1 and
    2,645 hold one-point systems, whose cells the centrality test reads, so the
    first and the last other row are moved, each in a column that is neither a
    one-point system nor its orbit's representative.
    """
    table = copy.copy(lam_table("C6"))
    table.product = table.product.copy()
    orbit_of, orbits = superext._table_orbits(table)
    principals = set(principal_indices(table.elements))
    free = [i for i in range(table.order) if i not in principals]
    j = next(j for j in reversed(free) if j != orbits[orbit_of[j]][0])
    chunk = superext._ROW_CHUNK
    assert free[0] < chunk and free[-1] >= (table.order - 1) // chunk * chunk
    for i in (free[0], free[-1]):
        cell = int(table.product[i, j])
        table.product[i, j] = next(k for k in range(table.order) if orbit_of[k] != orbit_of[cell])
        with pytest.raises(ConsistencyError, match="not well-defined"):
            orbit_quotient(table)
        table.product[i, j] = cell
    assert orbit_quotient(table)[2] is not None


def test_build_keeps_its_scratch_beside_the_c6_table(lam_table):
    """With the enumeration warm, building lambda(C6) peaks under 2 MB above its 14.0 MB table (tracemalloc)."""
    g, table = build_group("C6"), lam_table("C6")
    peak = traced_peak(lambda: build_lambda_table(g)) - table.product.nbytes
    assert peak < 2 * 2**20, peak


def test_orbit_quotient_keeps_its_scratch_beside_the_c6_table(lam_table):
    """A warm orbit_quotient of lambda(C6), every cell checked, peaks under 1.5 MB beside the table (tracemalloc)."""
    table = lam_table("C6")
    orbit_quotient(table)
    peak = traced_peak(lambda: orbit_quotient(table))
    assert peak < 1.5 * 2**20, peak


def test_orbit_quotient_c6_matches_per_pair(lam_table):
    g = build_group("C6")
    table = lam_table("C6")
    orbit_of, orbits, quotient = orbit_quotient(table)
    assert len(orbits) == 447
    p = table.product
    rng = random.Random(447)
    for _ in range(200):
        qa, qb = rng.randrange(len(orbits)), rng.randrange(len(orbits))
        cells = {orbit_of[int(p[a, b])] for a in orbits[qa] for b in orbits[qb]}
        assert cells == {int(quotient[qa, qb])}


def test_orbit_quotient_c1():
    _, orbits, _ = orbit_quotient(build_lambda_table(build_group("C1")))
    assert len(orbits) == 1


def test_orbit_quotient_noncentral_group_has_no_product(lam_table):
    # one-point systems over a nonabelian group are not central, so the
    # quotient product must be marked absent while orbits still count
    g = build_group("D6")
    table = lam_table("D6")
    _, orbits, quotient = orbit_quotient(table)
    p = table.product
    assert not all(np.array_equal(p[i], p[:, i]) for i in principal_indices(table.elements))
    assert quotient is None
    # independent orbit count: group systems by their full shift orbits
    systems = lam_table("D6").elements
    seen: set[tuple] = set()
    count = 0
    for s in systems:
        key = tuple(sorted(oracle_shift(s, g, x).minimal_sets for x in g.elements()))
        if key not in seen:
            seen.add(key)
            count += 1
    assert len(orbits) == count == 447
    with pytest.raises(ConsistencyError):
        quotient_table(orbits, quotient)


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


def test_transversal_check_rejects_a_repeated_orbit_and_an_unclosed_pick():
    table = build_lambda_table(build_group("C4"))
    assert not is_transversal_subsemigroup(table, [0, 1, 3])  # 0 and 1 share an orbit
    assert not is_transversal_subsemigroup(table, [0, 2, 3])  # one per orbit, but a product leaves the set


def test_transversal_search_c5_absent():
    assert transversal_subsemigroup_search(build_lambda_table(build_group("C5"))) is None


def test_transversal_search_c1_whole():
    table = build_lambda_table(build_group("C1"))
    assert transversal_subsemigroup_search(table) == [0]
