from __future__ import annotations

import hashlib
import random
import sys
import threading
from collections import Counter

import pytest

from superx import families, superext, verify
from superx.bitsets import mask_of, minimal_members, subsets_of_size, up_closure
from superx.errors import CapacityError, ConsistencyError
from superx.families import (
    SetFamily,
    enumerate_mls,
    family_from_bitmap,
    generate_family,
    majority_family,
    principal_ultrafilter,
)
from superx.groups import build_group
from oracles import (
    is_invariant_mls,
    oracle_all_mls,
    oracle_contains,
    oracle_hitting_family,
    oracle_minimal_members,
    oracle_shift,
    oracle_superset_closures,
    oracle_walk,
    words_of,
)

MLS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 12, 5: 81, 6: 2646}


def _family(n, *point_lists):
    return generate_family(n, [mask_of(p) for p in point_lists])


def test_family_contains():
    """Membership by the minimal sets, and the bitmap agrees with it on every mask."""
    fam = _family(3, [0, 2])
    assert oracle_contains(fam, 0b111)
    assert oracle_contains(fam, 0b101)
    assert not oracle_contains(fam, 0b011)
    assert not oracle_contains(fam, 0)
    delta = _family(5, [0, 2], [0, 3], [2, 3])
    assert not oracle_contains(delta, mask_of([1, 4]))
    for f in (fam, delta):
        assert all(oracle_contains(f, m) == bool(f.bitmap >> m & 1) for m in range(1 << f.ground_size))


def test_generate_family_absorption():
    fam = generate_family(2, [0b01, 0b11])
    assert fam.minimal_sets == (0b01,)
    tri = _family(3, [0, 1], [0, 2], [1, 2])
    assert tri.minimal_sets == (0b011, 0b101, 0b110)
    with pytest.raises(ConsistencyError):
        generate_family(3, [])
    with pytest.raises(ConsistencyError):
        generate_family(3, [0])


def test_family_canonical_form_is_idempotent():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 6)
        gens = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 6))]
        fam = generate_family(n, gens)
        assert generate_family(n, fam.minimal_sets) == fam


def test_transversal_of_whole_set_is_singletons():
    n = 4
    fam = generate_family(n, [(1 << n) - 1])
    assert fam.transversal().minimal_sets == tuple(1 << i for i in range(n))


# Dedekind numbers 3, 6, 20, 168 count the monotone families on n <= 4
# points; less the empty family and the one holding the empty set
UP_FAMILY_COUNTS = {1: 1, 2: 4, 3: 18, 4: 166}


def _up_families(n):
    """Every valid SetFamily on n points, found by scanning all family bitmaps."""
    size = 1 << n
    full = size - 1
    families = []
    for bitmap in range(1 << full, 1 << size, 2):  # holds the ground set, not the empty set
        members = [s for s in range(1, size) if bitmap >> s & 1]
        if all(bitmap >> (s | 1 << b) & 1 for s in members for b in range(n)):
            families.append(family_from_bitmap(n, bitmap))
    assert len(families) == UP_FAMILY_COUNTS[n]
    return families


def test_transversal_matches_oracle():
    for n in UP_FAMILY_COUNTS:
        for fam in _up_families(n):
            assert fam.transversal().minimal_sets == oracle_hitting_family(fam.minimal_sets, n)
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 6)
        gens = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 5))]
        fam = generate_family(n, gens)
        assert fam.transversal().minimal_sets == oracle_hitting_family(fam.minimal_sets, n)


def test_transversal_involution_exhaustive_small():
    # every antichain on up to 4 points
    for n in range(1, 5):
        subsets = list(range(1, 1 << n))
        for picks in range(1, 1 << len(subsets)):
            chosen = [subsets[i] for i in range(len(subsets)) if picks >> i & 1]
            if any(a != b and a & b == a for a in chosen for b in chosen):
                continue
            fam = SetFamily(n, tuple(sorted(chosen)))
            assert fam.transversal().transversal() == fam


def test_transversal_involution_random():
    rng = random.Random(9)
    for _ in range(1000):
        n = rng.randint(1, 6)
        gens = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 6))]
        fam = generate_family(n, gens)
        assert fam.transversal().transversal() == fam


def test_is_maximal_linked():
    assert majority_family(build_group("C5")).is_maximal_linked()
    assert _family(5, [0, 2], [0, 3], [2, 3]).is_maximal_linked()  # a triangle system
    four = majority_family(build_group("C4"))
    assert not four.is_maximal_linked()
    assert oracle_hitting_family(four.minimal_sets, 4) != four.minimal_sets
    assert _family(3, [1]).is_maximal_linked()


def test_is_maximal_linked_matches_transversal_on_every_monotone_family():
    for n in UP_FAMILY_COUNTS:
        families = _up_families(n)
        flags = [f.is_maximal_linked() for f in families]
        assert flags == [oracle_hitting_family(f.minimal_sets, n) == f.minimal_sets for f in families]
        assert sum(flags) == MLS_COUNTS[n]


def test_enumerate_mls_counts():
    for n, want in MLS_COUNTS.items():
        assert len(enumerate_mls(n)) == want


def test_enumerate_mls_matches_bruteforce_oracle():
    for n in range(1, 5):
        got = [s.minimal_sets for s in enumerate_mls(n)]
        assert got == oracle_all_mls(n)


def test_enumerate_mls_canonical_order_and_validity():
    for n in range(1, 6):
        systems = enumerate_mls(n)
        keys = [s.minimal_sets for s in systems]
        assert keys == sorted(keys)
        for s in systems:
            assert s.is_maximal_linked()


# sha256 of the newline-joined serialize() list: the enumeration order and
# each system's minimal sets
SERIALIZED_MLS_SHA256 = {
    1: "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    2: "b598b3a62a3f7cedb17e66d1cb31d53dffeebaf5c07e2c60d5e31971936fd35e",
    3: "ac23e60b271c356020fb37c5fab2bc61a82726a30c7f48b2de6cea81f7144cc2",
    4: "551f012bbeae35d362caff5c2bcdc5f4b70412580b6cd912f85de72e5d6afa14",
    5: "d2f0c7262646343a2238d58f957dae4764abe030f06e7aba01031c5de90c822e",
    6: "505a36d7243b78fe8196a21a548b06b8a41a497fe43ad202ece6408790eecad3",
}


def test_serialized_mls_digest_pinned():
    for n, want in SERIALIZED_MLS_SHA256.items():
        text = "\n".join(s.serialize() for s in enumerate_mls(n))
        assert hashlib.sha256(text.encode()).hexdigest() == want


def test_enumerate_mls_returns_one_shared_sequence_per_ground(monkeypatch):
    """On a cleared cache, each ground 1-6 has one sequence with read-only words, and reading it twice, by
    index and by iteration, builds each family once."""
    families._shared_systems.cache_clear()
    built = Counter()
    derived = families._derived
    monkeypatch.setattr(families, "_derived", lambda n, *rest: built.update([n]) or derived(n, *rest))
    shared = [enumerate_mls(n) for n in range(1, 7)]
    for n, systems in enumerate(shared, 1):
        assert enumerate_mls(n) is systems and not isinstance(systems, list), n
        with pytest.raises(ValueError):
            systems.words[0, 0] = 0
        for _ in range(2):
            assert [s.minimal_sets for s in systems] == [systems[i].minimal_sets for i in range(len(systems))]
        assert built[n] == len(systems) == MLS_COUNTS[n], n
    assert len({id(s) for s in shared}) == 6
    assert [s.minimal_sets for s in enumerate_mls(4)] == oracle_all_mls(4)


def test_shared_systems_build_each_family_when_read():
    """On a cleared cache, every ground 1-6 (2,746 systems): a family read by index equals the bulk-built one at
    its position, iterating afterwards builds none again, and ``index`` finds each family by its bitmap."""
    families._shared_systems.cache_clear()
    seen = 0
    for n in range(1, 7):
        lazy = families._shared_systems(n)
        assert lazy._built == [None] * len(lazy)  # nothing built before it is read
        read = [lazy[i] for i in range(len(lazy))]
        bulk = list(families._SystemList(lazy.words, n))
        assert read == bulk and [vars(s)["bitmap"] for s in read] == [vars(s)["bitmap"] for s in bulk], n
        assert all(a is b for a, b in zip(lazy, read)), n  # kept, not rebuilt by the bulk pass
        assert lazy[-1] is read[-1] and lazy[1:3] == read[1:3], n
        assert [lazy.index(s) for s in bulk] == list(range(len(bulk))), n
        seen += len(bulk)
    assert seen == 2746
    six, five = families._shared_systems(6), families._shared_systems(5)
    for outside in (majority_family(build_group("C6")), five[0]):  # not maximal linked on 6 points; on 5 points
        with pytest.raises(ValueError):
            six.index(outside)


def test_shared_systems_read_from_threads_are_one_list():
    """Threads reading one unbuilt sequence, by index and by iteration, on a short switch interval, all see
    the bulk-built families."""
    words = families._shared_systems(6).words
    want = list(families._SystemList(words, 6))
    shared = families._SystemList(words, 6)
    reads = []

    def read(k):
        reads.append(list(shared) if k % 2 else [shared[i] for i in range(len(words))])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(reads) == 4 and all(r == want for r in reads) and list(shared) == want


def test_verify_all_enumerates_each_ground_size_once(monkeypatch):
    """Every call counts: superext binds its own _system_words, for the ground-7 count."""
    enumerated = Counter()
    system_words = families._system_words
    for module in (families, superext):
        monkeypatch.setattr(module, "_system_words", lambda n: enumerated.update([n]) or system_words(n))
    families._shared_systems.cache_clear()
    verify._lambda_table.cache_clear()
    verify._table_facts.cache_clear()
    verify.run_verification("all")
    assert enumerated == {n: 1 for n in range(1, 7)}


def _bitmaps_of(words):
    """Each row of an (m, W) word array as one Python int."""
    return [sum(int(w) << (64 * i) for i, w in enumerate(row)) for row in words]


def test_system_words_equal_the_walk_as_a_set():
    """The pair recursion and the backtracking walk of the oracles list the same systems, each once."""
    for n in range(1, 7):
        bitmaps = _bitmaps_of(families._system_words(n))
        assert len(bitmaps) == len(set(bitmaps)) == MLS_COUNTS[n], n
        assert set(bitmaps) == set(oracle_walk(n)), n


def test_up_family_counts():
    """Dedekind numbers 2, 3, 6, 20, 168, 7,581 for k = 0..5; up to 4 points the very families found by scanning,
    each with its dual {A : the complement of A is not a member}."""
    assert [len(families._up_families(k)[0]) for k in range(6)] == [2, 3, 6, 20, 168, 7581]
    for k in range(5):
        size = 1 << k
        scanned = {
            bm
            for bm in range(1 << size)
            if all(bm >> (s | 1 << b) & 1 for s in range(size) if bm >> s & 1 for b in range(k))
        }
        up, dual = (a.tolist() for a in families._up_families(k))
        assert len(up) == len(set(up)) and set(up) == scanned, k
        assert dual == [sum(1 << a for a in range(size) if not bm >> (a ^ (size - 1)) & 1) for bm in up], k


def test_words_of_packs_the_bitmaps():
    """Row i of the shared words is the bitmap of system i, read-only; the minimal-set pass reads packed sets back."""
    for n in range(1, 7):
        systems = families._shared_systems(n)
        words = systems.words
        assert enumerate_mls(n) is systems
        bitmaps = [s.bitmap for s in systems]
        assert [int(w) for w in words[:, 0]] == bitmaps == [int(w) for w in words_of(bitmaps, n)[:, 0]]
        assert not words.flags.writeable
    c7 = build_group("C7")
    seven = [
        generate_family(7, [0b1000001, 0b0111110]),
        principal_ultrafilter(c7, 6),
        majority_family(c7),
        _family(7, [0, 1], [1, 6], [0, 6]),  # a triangle system, maximal linked as it stands
    ]
    assert seven[-1].is_maximal_linked()
    words = words_of([s.bitmap for s in seven], 7)
    assert [int(lo) | int(hi) << 64 for lo, hi in words] == [s.bitmap for s in seven]
    assert families._minimal_sets(words, 7) == [s.minimal_sets for s in seven]


def test_enumerated_systems_are_their_checked_families():
    """Each enumerated system passes the public constructor's checks and keeps its own bitmap."""
    for n in range(1, 7):
        for s in enumerate_mls(n):
            checked = SetFamily(n, s.minimal_sets)
            assert s == checked
            assert vars(s)["bitmap"] == checked.bitmap


def test_families_of_bitmaps_rejects_what_its_pass_cannot_check():
    sup = oracle_superset_closures(3)
    assert families._families_of_bitmaps(words_of([sup[1]], 3), 3) == [SetFamily(3, (1,))]
    for bitmap in (0, sup[0], sup[1] | 1 << 8):  # no member; the empty set; a set past 3 points
        with pytest.raises(ConsistencyError):
            families._families_of_bitmaps(words_of([sup[1], bitmap], 3), 3)
    with pytest.raises(ConsistencyError):  # words of the wrong width
        families._families_of_bitmaps(words_of([sup[1]], 7), 3)


def test_minimal_sets_across_words():
    """On one word and on 4, 8 and 16 words the minimal-set pass agrees with the subset walk.

    For n >= 7 a point b >= 6 moves a set into another word, so every
    family there has minimal sets that hold such a point.
    """
    rng = random.Random(20261018)
    for n in (3, 6, 8, 9, 10):
        sup = oracle_superset_closures(n)
        top = 1 << n
        bitmaps = [(1 << top) - 2, sup[mask_of([1, min(7, n - 1), n - 1])]]  # all non-empty sets; a principal filter
        for _ in range(20):
            generators = rng.sample(range(1, top), rng.randint(1, min(top - 1, 12)))
            bitmap = 0
            for s in generators:
                bitmap |= sup[s]
            bitmaps.append(bitmap)
        words = words_of(bitmaps, n)
        assert words.shape == (len(bitmaps), max(1, top >> 6))
        assert families._minimal_sets(words, n) == [tuple(oracle_minimal_members(b, n)) for b in bitmaps], n


def test_up_closure_and_minimal_members_match_the_oracles():
    """The one-point shifts agree with the superset and subset walks up to 10 points.

    The closure is checked on every single set; minimal members on closed
    bitmaps, and on unclosed ones closed first, whose minimal members are
    those of their closure.
    """
    rng = random.Random(20261019)
    for n in range(1, 11):
        sup = oracle_superset_closures(n)
        assert [up_closure(1 << s, n) for s in range(1 << n)] == sup, n
        top = 1 << n
        for _ in range(6):
            generators = rng.sample(range(1, top), rng.randint(1, min(top - 1, 12)))
            unclosed = sum(1 << s for s in generators)
            closed = 0
            for s in generators:
                closed |= sup[s]
            assert up_closure(unclosed, n) == up_closure(closed, n) == closed, n
            want = oracle_minimal_members(closed, n)
            assert minimal_members(closed, n) == minimal_members(up_closure(unclosed, n), n) == want, n
            assert oracle_minimal_members(unclosed, n) == want, n
        noise = rng.getrandbits(top) & ~1  # dense and unclosed, without the empty set
        assert minimal_members(up_closure(noise, n), n) == oracle_minimal_members(noise, n), n


def test_derived_families_equal_their_checked_families():
    """On 2,000 seeded bitmaps and generator lists, n <= 9, each derived family is its checked one.

    family_from_bitmap, and through it transversal and generate_family, and
    principal_ultrafilter skip SetFamily's antichain check; each stores its
    closure as the family's bitmap when it builds the family, and SetFamily
    the closure its antichain check computed.
    """
    rng = random.Random(20261021)
    for k in range(2000):
        n = rng.randint(1, 9)
        top = 1 << n
        gens = rng.sample(range(1, top), rng.randint(1, min(top - 1, 8)))
        bitmap = sum(1 << s for s in gens) if k % 4 else (rng.getrandbits(top) | 1 << (top - 1)) & ~1
        checked = SetFamily(n, tuple(minimal_members(up_closure(bitmap, n), n)))
        derived = family_from_bitmap(n, bitmap)
        assert derived == checked and vars(derived)["bitmap"] == up_closure(bitmap, n) == vars(checked)["bitmap"]
        gen_closure = up_closure(sum(1 << s for s in gens), n)
        generated = generate_family(n, gens + gens[:1])  # a repeated generator changes nothing
        assert generated == SetFamily(n, tuple(minimal_members(gen_closure, n)))
        assert vars(generated)["bitmap"] == gen_closure
        hitting = sum(1 << c for c in range(1, top) if all(c & s for s in checked.minimal_sets))
        transversal = checked.transversal()
        assert transversal == SetFamily(n, tuple(minimal_members(hitting, n)))
        assert vars(transversal)["bitmap"] == hitting
    for name in ("C1", "C5", "C2xC2xC2"):
        g = build_group(name)
        for x in g.elements():
            ultrafilter = principal_ultrafilter(g, x)
            assert ultrafilter == SetFamily(g.order, (1 << x,))
            assert vars(ultrafilter)["bitmap"] == up_closure(1 << (1 << x), g.order)


def test_derived_families_past_twelve_points_are_a_capacity_error():
    """The derived path checks the ground after the members, as SetFamily does."""
    with pytest.raises(ConsistencyError, match="at least one member"):
        families._derived(13, (), 0)
    for make in (
        lambda: families._derived(13, (1,), 2),
        lambda: family_from_bitmap(13, 2),
        lambda: generate_family(13, (1,)),
    ):
        with pytest.raises(CapacityError, match="n <= 12"):
            make()


def test_enumerate_mls_capacity():
    with pytest.raises(CapacityError):
        enumerate_mls(0)
    with pytest.raises(CapacityError):
        enumerate_mls(8)
    with pytest.raises(CapacityError):
        enumerate_mls(7)  # ground 7 is only counted, by superext.system_counts


def test_ground_above_twelve_is_a_capacity_error():
    """Family bitmaps stop at 12 points, and the family entry points say so with CapacityError.

    SetFamily checks the ground after the members' own order, so a malformed
    list of minimal sets on 13 points still raises its ConsistencyError.
    """
    with pytest.raises(CapacityError, match="n <= 12"):
        SetFamily(13, (1,))
    with pytest.raises(CapacityError, match="n <= 12"):
        SetFamily(13, (1, 3))  # not an antichain, but checked after the ground
    with pytest.raises(ConsistencyError, match="at least one member"):
        SetFamily(13, ())
    with pytest.raises(ConsistencyError, match="strictly ascending"):
        SetFamily(13, (2, 1))
    for operator in (up_closure, minimal_members):
        with pytest.raises(CapacityError, match="n <= 12"):
            operator(1, 13)
    with pytest.raises(CapacityError, match="n <= 12"):
        generate_family(13, [1])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SetFamily(3, ()), "at least one member"),
        (lambda: SetFamily(3, (0, 1)), "empty set cannot be a member"),
        (lambda: SetFamily(3, (0b1000,)), "exceeds the ground set"),
        (lambda: SetFamily(3, (2, 1)), "strictly ascending"),
        (lambda: SetFamily(3, (1, 3)), "antichain"),
        (lambda: generate_family(3, [1, 9]), "exceeds the ground set"),  # 9 = {0, 3} is absorbed by {0}
        (lambda: family_from_bitmap(3, 0), "at least one member"),
        (lambda: family_from_bitmap(3, 0b11), "empty set cannot be a member"),
        (lambda: family_from_bitmap(3, 1 << 8), "exceeds the ground set"),
        (lambda: principal_ultrafilter(build_group("C3"), 3), "exceeds the ground set"),
        (lambda: families._derived(3, (), 0), "at least one member"),
        (lambda: families._derived(3, (0, 1), 0b11), "empty set cannot be a member"),
        (lambda: families._derived(3, (1, 0b1000), 0b10 | 1 << 8), "exceeds the ground set"),
    ],
    ids=[
        "no-members", "empty-set", "past-ground", "descending", "not-antichain", "generator-past-ground",
        "bitmap-no-members", "bitmap-empty-set", "bitmap-past-ground", "point-past-ground",
        "derived-no-members", "derived-empty-set", "derived-past-ground",
    ],
)
def test_set_family_rejects_malformed_families(make, message):
    with pytest.raises(ConsistencyError, match=message):
        make()


def test_mls_exactly_one_of_each_complementary_pair():
    for n in range(1, 7):
        full = (1 << n) - 1
        for s in enumerate_mls(n):
            bitmap = s.bitmap
            for a in range(1 << n):
                assert (bitmap >> a & 1) != (bitmap >> (full ^ a) & 1)


def test_from_family_rejects_non_self_dual():
    assert not majority_family(build_group("C4")).is_maximal_linked()


def test_principal_ultrafilter():
    g = build_group("C3")
    u = principal_ultrafilter(g, 0)
    assert u.minimal_sets == (1,)
    c5 = build_group("C5")
    u0 = principal_ultrafilter(c5, 0)
    assert oracle_contains(u0, 0b00001) and not oracle_contains(u0, 0b00010)


def test_majority_family_examples():
    c5 = build_group("C5")
    assert majority_family(c5).minimal_sets == tuple(subsets_of_size(5, 3))
    c3 = build_group("C3")
    assert majority_family(c3) == _family(3, [0, 1], [0, 2], [1, 2])


def test_subsets_of_size_matches_a_scan_of_every_mask():
    """Including k = 0, which gives [0], and k > n, which gives []."""
    for n in range(9):
        for k in range(n + 2):
            assert subsets_of_size(n, k) == [m for m in range(1 << n) if m.bit_count() == k], (n, k)


def test_shift_is_bijection():
    for name in ("C1", "C2", "C3", "C4", "C2xC2", "C5"):
        g = build_group(name)
        systems = enumerate_mls(g.order)
        keys = {s.minimal_sets for s in systems}
        for x in g.elements():
            images = {oracle_shift(s, g, x).minimal_sets for s in systems}
            assert images == keys


def test_is_invariant_mls():
    c3 = build_group("C3")
    assert is_invariant_mls(c3, majority_family(c3))
    assert not is_invariant_mls(c3, principal_ultrafilter(c3, 0))
