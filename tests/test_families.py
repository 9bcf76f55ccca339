from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from superx import families, verify
from superx.bitsets import mask_of, minimal_members, subsets_of_size, superset_closures
from superx.errors import CapacityError, ConsistencyError
from superx.families import (
    SetFamily,
    enumerate_mls,
    extend_to_mls,
    family_from_bitmap,
    generate_family,
    is_invariant_mls,
    majority_family,
    principal_ultrafilter,
    system_words,
)
from superx.groups import build_group
from oracles import oracle_all_mls, oracle_hitting_family

MLS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 12, 5: 81, 6: 2646}


def _family(n, *point_lists):
    return generate_family(n, [mask_of(p) for p in point_lists])


def test_family_contains():
    fam = _family(3, [0, 2])
    assert fam.contains(0b111)
    assert fam.contains(0b101)
    assert not fam.contains(0b011)
    assert not fam.contains(0)
    delta = _family(5, [0, 2], [0, 3], [2, 3])
    assert not delta.contains(mask_of([1, 4]))


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


def test_is_linked():
    assert _family(3, [0, 1], [1, 2]).is_linked()
    assert not _family(3, [0], [1]).is_linked()
    assert majority_family(build_group("C5")).is_linked()
    # linked iff contained in own transversal
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 6)
        gens = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 5))]
        fam = generate_family(n, gens)
        trans_bitmap = fam.transversal().bitmap
        assert fam.is_linked() == (fam.bitmap & ~trans_bitmap == 0)


def test_is_maximal_linked():
    assert majority_family(build_group("C5")).is_maximal_linked()
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


# sha256 of the newline-joined serialize() list, the system part of the
# cache digest; a change here turns every stored cache entry into a miss
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


def test_enumerate_mls_returns_a_fresh_list_each_call():
    first = enumerate_mls(4)
    first.reverse()
    first.pop()
    assert [s.minimal_sets for s in enumerate_mls(4)] == oracle_all_mls(4)


def test_verify_all_walks_each_ground_size_once(monkeypatch):
    walked = Counter()
    walk = families._walk
    monkeypatch.setattr(families, "_walk", lambda n: walked.update([n]) or walk(n))
    families._shared_systems.cache_clear()
    verify._lambda_table.cache_clear()
    verify.run_verification("all")
    assert walked == {n: 1 for n in range(1, 7)}


def test_system_words_are_the_bitmaps():
    """system_words packs each bitmap, and the enumerator's minimal-set pass reads the sets back."""
    for n in range(1, 7):
        systems = enumerate_mls(n)
        assert [int(w) for w in system_words(systems)[:, 0]] == [s.bitmap for s in systems]
    c7 = build_group("C7")
    seven = [
        generate_family(7, [0b1000001, 0b0111110]),
        principal_ultrafilter(c7, 6),
        majority_family(c7),
        extend_to_mls(_family(7, [0, 1], [1, 6], [0, 6])),
    ]
    words = system_words(seven)
    assert [int(lo) | int(hi) << 64 for lo, hi in words] == [s.bitmap for s in seven]
    assert families._minimal_sets(words, 7) == [s.minimal_sets for s in seven]


def test_minimal_sets_across_words():
    """On 4, 8 and 16 words the minimal-set pass agrees with minimal_members.

    For n >= 7 a point b >= 6 moves a set into another word, so every
    family below has minimal sets that hold such a point.
    """
    rng = random.Random(20261018)
    for n in (8, 9, 10):
        sup = superset_closures(n)
        top = 1 << n
        bitmaps = [(1 << top) - 2, sup[mask_of([1, 7, n - 1])]]  # all non-empty sets; a principal filter
        for _ in range(20):
            generators = rng.sample(range(1, top), rng.randint(1, 12))
            bitmap = 0
            for s in generators:
                bitmap |= sup[s]
            bitmaps.append(bitmap)
        words = families._words_of(bitmaps, n)
        assert words.shape == (len(bitmaps), top >> 6)
        assert families._minimal_sets(words, n) == [tuple(minimal_members(b, n)) for b in bitmaps], n


def test_enumerate_mls_capacity():
    with pytest.raises(CapacityError):
        enumerate_mls(0)
    with pytest.raises(CapacityError):
        enumerate_mls(8)
    with pytest.raises(CapacityError):
        enumerate_mls(7)  # ground 7 is only counted, by superext.system_counts


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
    assert u0.contains(0b00001) and not u0.contains(0b00010)


def test_majority_family_examples():
    c5 = build_group("C5")
    assert majority_family(c5).minimal_sets == tuple(subsets_of_size(5, 3))
    c3 = build_group("C3")
    assert majority_family(c3) == _family(3, [0, 1], [0, 2], [1, 2])


def test_shift_identity_and_inverse():
    g = build_group("C5")
    systems = enumerate_mls(5)
    for s in systems[:20]:
        assert s.shift(g, 0) == s
        for x in g.elements():
            assert s.shift(g, x).shift(g, g.inv[x]) == s


def test_shift_example_on_c5():
    g = build_group("C5")
    delta = _family(5, [0, 2], [0, 3], [2, 3])
    assert delta.is_maximal_linked()
    assert delta.shift(g, 1) == _family(5, [1, 3], [1, 4], [3, 4])


def test_shift_is_bijection():
    for name in ("C1", "C2", "C3", "C4", "C2xC2", "C5"):
        g = build_group(name)
        systems = enumerate_mls(g.order)
        keys = {s.minimal_sets for s in systems}
        for x in g.elements():
            images = {s.shift(g, x).minimal_sets for s in systems}
            assert images == keys


def test_is_invariant_mls():
    c3 = build_group("C3")
    assert is_invariant_mls(c3, majority_family(c3))
    assert not is_invariant_mls(c3, principal_ultrafilter(c3, 0))


def test_extend_to_mls():
    g = build_group("C4")
    fam = _family(4, [0, 1])
    ext = extend_to_mls(fam)
    assert ext.is_maximal_linked()
    assert all(ext.contains(m) for m in fam.minimal_sets)
    with pytest.raises(ConsistencyError):
        extend_to_mls(_family(4, [0], [1]))
    # deterministic
    assert extend_to_mls(fam) == extend_to_mls(fam)
