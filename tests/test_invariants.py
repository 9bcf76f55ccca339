from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest

from superx.bitsets import mask_of
from superx.errors import CapacityError, ConsistencyError
from superx.expected import INVARIANT_COUNTS, SIM_CLASS_COUNTS, SL_TABLE
from superx.families import SetFamily, majority_family
from superx.groups import _make_group, build_group, is_odd_group, shift_table
from superx.invariants import (
    _closed_families,
    _invariant_cliques,
    _maximal_cliques,
    enumerate_half_self_linked,
    enumerate_invariant_mls,
    odd_equivalences,
    partition_condition,
    self_linked_subsets,
    sim_classes,
    sl,
    sl_lower_bound,
    up_majority_count,
)
from superx.semigroups import right_zeros
from superx.superext import circ, noncommuting_pair, system_counts
from oracles import (
    oracle_compatible,
    oracle_contains,
    oracle_element_order,
    oracle_relabel,
    oracle_self_linked,
    oracle_shift,
    oracle_shift_closed_maximal_linked_families,
    oracle_smallest_self_linked,
    oracle_translate,
)

CATALOG_LE8 = ("C1",) + tuple(INVARIANT_COUNTS)
CATALOG_LE10 = ("C1",) + tuple(name for name in SL_TABLE if build_group(name).order <= 10)


def test_oracle_self_linked_examples():
    c6 = build_group("C6")
    assert oracle_self_linked(c6.mul, mask_of([0, 1, 3]))  # {e, a, a^3}
    for name in ("C4", "Q8", "A4"):
        g = build_group(name)
        assert oracle_self_linked(g.mul, g.full_mask)


def test_self_linked_subsets_match_direct_definition():
    """The self-linked subsets are the masks whose difference set AA^-1 is the whole group."""
    for name in ("C5", "C6", "D6", "Q8"):
        g = build_group(name)
        linked = set(self_linked_subsets(g))
        compatible = oracle_compatible(g.mul)
        for mask in range(1, 1 << g.order):
            assert (mask in linked) == oracle_self_linked(g.mul, mask) == compatible[mask, mask]


def test_sl_lower_bound():
    assert sl_lower_bound(1) == 1
    assert sl_lower_bound(7) == 3
    assert sl_lower_bound(8) == 4  # least k with k^2-k+1 >= 8
    c7 = build_group("C7")
    assert sl(c7) == 3
    assert oracle_self_linked(c7.mul, mask_of([0, 1, 3]))  # {e, a, a^3} attains it


def test_sl_examples():
    assert sl(build_group("C1")) == 1
    assert sl(build_group("C13")) == 4
    assert sl(build_group("C3:C4")) == 5


def test_sl_against_oracle_small():
    """sl equals the brute-force oracle on every group sl-table and explore-sl read."""
    for name in ("C1", *SL_TABLE, "C14", "C15", "C16"):
        g = build_group(name)
        assert sl(g) == oracle_smallest_self_linked(g.mul), name


def test_sl_reference_table_agreement():
    """The embedded reference table matches computation on 23 of 24 rows.

    The D10 row is a known defect in the reference data: exhaustive
    search (twice independently) shows its least self-linked subset has
    five elements, not four.  test_d10_reference_discrepancy pins that.
    """
    mismatches = {
        name: (sl(build_group(name)), want)
        for name, want in SL_TABLE.items()
        if sl(build_group(name)) != want
    }
    assert mismatches == {"D10": (5, 4)}


def _pentagon_symmetries():
    """D10 as the ten symmetries of a regular pentagon, without build_group.

    Vertices are 0..4; the rotations x -> x + k and the reflections
    x -> k - x (mod 5) are permutation tuples, composed as p(q(x)).
    """
    rotations = [tuple((x + k) % 5 for x in range(5)) for k in range(5)]
    reflections = [tuple((k - x) % 5 for x in range(5)) for k in range(5)]
    return rotations + reflections


def _pair_count_bound(mul):
    """(i, least k with C(k, 2) >= i + (n - 1 - i) / 2), i = number of involutions.

    A pair {a, b} of a self-linked set covers ab^-1 and ba^-1 = (ab^-1)^-1:
    one involution, or one inverse pair {g, g^-1}.  Every involution and
    every inverse pair must be covered, so a self-linked set has at least
    this many elements.
    """
    n = len(mul)
    involutions = sum(oracle_element_order(mul, x) == 2 for x in range(1, n))
    needed = involutions + (n - 1 - involutions) // 2
    k = 1
    while k * (k - 1) // 2 < needed:
        k += 1
    return involutions, k


def test_d10_reference_discrepancy():
    g = build_group("D10")
    # the documented witness set {e, a, b, ba2} misses ba3 in its
    # difference set, so it is not self-linked
    claimed = mask_of([0, 1, 5, 7])
    assert not oracle_self_linked(g.mul, claimed)
    # no 4-element subset works at all
    for combo in combinations(range(10), 4):
        assert not oracle_self_linked(g.mul, mask_of(combo))
    assert sl(g) == 5
    assert SL_TABLE["D10"] == 4  # the reference value disagrees

    # certificate 1: an independent pentagon model.  It is a non-abelian
    # group of order 10, hence D10; no 4-subset has AA^-1 = X there, and
    # some 5-subset does.
    pentagon = _pentagon_symmetries()
    compose = lambda p, q: tuple(p[q[x]] for x in range(5))
    inverse = lambda p: tuple(sorted(range(5), key=p.__getitem__))
    assert len(set(pentagon)) == 10
    assert all(compose(p, q) in pentagon for p in pentagon for q in pentagon)
    assert any(compose(p, q) != compose(q, p) for p in pentagon for q in pentagon)

    def model_self_linked(subset):
        return len({compose(a, inverse(b)) for a in subset for b in subset}) == 10

    assert not any(model_self_linked(s) for s in combinations(pentagon, 4))
    assert any(model_self_linked(s) for s in combinations(pentagon, 5))

    # certificate 2: the pair count.  D10 has 5 reflections and 4
    # non-trivial rotations, so a self-linked set needs 5 + 4/2 = 7 pairs
    # and C(4, 2) = 6 is too few; every other reference row meets the bound.
    involutions, bound = _pair_count_bound(g.mul)
    assert involutions == 5 and bound == 5 > SL_TABLE["D10"]
    for name, want in SL_TABLE.items():
        if name != "D10":
            assert _pair_count_bound(build_group(name).mul)[1] <= want, name

    # corroboration through the independently verified half-size
    # machinery: sl = |G|/2 puts D10 in the 2^s regime, and the 32
    # maximal invariant linked systems found at the opt-in capacity
    # match s = 5 exactly
    assert len(enumerate_half_self_linked(g)) == 100
    assert len(sim_classes(g)) == 5
    systems = enumerate_invariant_mls(g, allow_large=True)
    assert len(systems) == 32 == 2**5


def test_sl_at_least_lower_bound_everywhere():
    for name in SL_TABLE:
        g = build_group(name)
        assert sl(g) >= sl_lower_bound(g.order)


def test_documented_witness_sets():
    """Known small self-linked sets that realize the table values."""
    cases = {
        "C6": [0, 1, 3],          # {e, a, a3}
        "C7": [0, 1, 3],
        "C8": [0, 1, 3, 4],       # {e, a, a3, a4}
        "C2xC4": [0, 1, 2, 4],    # {e, a, a2, b} with a=(0,1), b=(1,0)
        "D8": [0, 1, 4, 6],       # {e, a, b, ba2}
        "Q8": [0, 1, 2, 4],       # {1, -1, i, j}
        "C11": [0, 4, 5, 7],      # {e, a4, a5, a7}
        "C13": [0, 4, 5, 7],
        "C12": [0, 1, 3, 7],      # {e, a, a3, a7}
        "C3:C4": [0, 1, 2, 3, 6],  # normal C3 plus {a, a2}
    }
    for name, points in cases.items():
        g = build_group(name)
        mask = mask_of(points)
        assert oracle_self_linked(g.mul, mask)
        assert mask.bit_count() == sl(g) == SL_TABLE[name]


def test_d12_witness_slip_but_correct_value():
    # the documented D12 witness {e, a, a3, b, ba} misses ba2 under
    # either reflection convention, yet the table value 5 is right:
    # fifteen identity-containing 5-subsets are self-linked
    g = build_group("D12")
    assert not oracle_self_linked(g.mul, mask_of([0, 1, 3, 6, 7]))
    assert not oracle_self_linked(g.mul, mask_of([0, 1, 3, 6, 11]))
    assert oracle_self_linked(g.mul, mask_of([0, 1, 2, 6, 9]))  # {e, a, a2, b, ba3}
    assert sl(g) == 5 == SL_TABLE["D12"]


def test_half_self_linked_c6():
    g = build_group("C6")
    sets = enumerate_half_self_linked(g)
    t = mask_of([0, 1, 3])
    expected = set()
    for x in g.elements():
        expected.add(oracle_translate(g.mul, x, t))
        expected.add(oracle_translate(g.mul, x, g.full_mask ^ t))
    assert sorted(expected) == sets
    assert len(sets) == 12


def test_half_self_linked_c2xc4():
    g = build_group("C2xC4")
    boolean_part = mask_of([x for x in g.elements() if g.mul[x][x] == 0])
    assert boolean_part.bit_count() == 4
    got = set(enumerate_half_self_linked(g))
    for combo in combinations(range(8), 4):
        mask = mask_of(combo)
        odd_meet = (mask & boolean_part).bit_count() % 2 == 1
        assert (mask in got) == odd_meet


def test_half_self_linked_c2_and_odd_order_error():
    # singletons in C2 have one-element difference sets, so none qualify
    g = build_group("C2")
    assert not oracle_self_linked(g.mul, 0b01)
    assert not oracle_self_linked(g.mul, 0b10)
    assert enumerate_half_self_linked(g) == []
    with pytest.raises(ConsistencyError):
        enumerate_half_self_linked(build_group("C5"))


def test_sim_classes_counts():
    for name, want in SIM_CLASS_COUNTS.items():
        assert len(sim_classes(build_group(name))) == want


def test_c8_three_documented_class_representatives():
    # {e,a,a2,a4}, {e,a,a2,a5}, {e,a,a3,a5} generate the three classes
    g = build_group("C8")
    reps = [mask_of([0, 1, 2, 4]), mask_of([0, 1, 2, 5]), mask_of([0, 1, 3, 5])]
    classes = sim_classes(g)
    assert len(classes) == 3
    homes = [next(i for i, cls in enumerate(classes) if r in cls) for r in reps]
    assert sorted(homes) == [0, 1, 2]


def test_sim_relation_is_an_equivalence():
    for name in ("C6", "C8", "C2xC4", "D8", "Q8", "C10", "D10"):
        g = build_group(name)
        sets = enumerate_half_self_linked(g)
        full = g.full_mask

        def related(a, b):
            for x in g.elements():
                xb = oracle_translate(g.mul, x, b)
                if a == xb or (full ^ a) == xb:
                    return True
            return False

        classes = sim_classes(g)
        assert sorted(m for cls in classes for m in cls) == sets
        for cls in classes:
            for a in cls:
                assert related(a, a)
                for b in cls:
                    assert related(a, b) and related(b, a)
        for i, cls in enumerate(classes):
            for other in classes[i + 1 :]:
                assert not any(related(a, b) for a in cls for b in other)


def test_invariant_counts_match_reference():
    for name, want in INVARIANT_COUNTS.items():
        assert len(enumerate_invariant_mls(build_group(name))) == want


def test_invariant_systems_match_bruteforce_oracle():
    for name in ("C1", "C2", "C3", "C4", "C2xC2", "C5"):
        g = build_group(name)
        got = sorted(s.minimal_sets for s in enumerate_invariant_mls(g))
        assert got == oracle_shift_closed_maximal_linked_families(g)


def test_invariant_capacity():
    with pytest.raises(CapacityError):
        enumerate_invariant_mls(build_group("C9"))


def test_c7_invariant_structure():
    g = build_group("C7")
    systems = enumerate_invariant_mls(g)
    assert len(systems) == 3
    quadratic = mask_of([1, 2, 4])
    with_t = [s for s in systems if oracle_contains(s, quadratic)]
    with_t_inv = [s for s in systems if oracle_contains(s, mask_of([3, 5, 6]))]
    assert len(with_t) == 1 and len(with_t_inv) == 1
    assert with_t[0] is not with_t_inv[0]
    majority = majority_family(g)
    pure = [s for s in systems if s == majority]
    assert len(pure) == 1
    assert all(s.is_maximal_linked() for s in systems)


def test_invariant_families_are_their_checked_families():
    """Each invariant family passes the public constructor's checks and keeps its own bitmap."""
    for name in CATALOG_LE10:
        g = build_group(name)
        for s in enumerate_invariant_mls(g, allow_large=True):
            checked = SetFamily(g.order, s.minimal_sets)
            assert s == checked, name
            assert vars(s)["bitmap"] == checked.bitmap, name


def test_invariant_systems_are_shift_closed_and_self_linked():
    for name in CATALOG_LE8:
        g = build_group(name)
        for s in enumerate_invariant_mls(g):
            assert all(oracle_shift(s, g, x) == s for x in g.elements())
            for m in s.minimal_sets:
                assert oracle_self_linked(g.mul, m)


def test_unique_invariant_system_iff_sl_above_half():
    for name in CATALOG_LE8:
        g = build_group(name)
        unique = len(enumerate_invariant_mls(g)) == 1
        assert unique == (2 * sl(g) > g.order)


def test_majority_containment_when_sl_at_least_half():
    for name in CATALOG_LE8:
        g = build_group(name)
        if 2 * sl(g) < g.order:
            continue
        majority = majority_family(g)
        for s in enumerate_invariant_mls(g):
            assert all(oracle_contains(s, m) for m in majority.minimal_sets)


def test_half_size_complements_stay_self_linked():
    for name in ("C6", "C8", "C2xC4", "D8", "Q8"):
        g = build_group(name)
        sets = set(enumerate_half_self_linked(g))
        for m in sets:
            assert (g.full_mask ^ m) in sets


def test_up_majority_counts():
    for name, s_value in SIM_CLASS_COUNTS.items():
        g = build_group(name)
        systems, classes = enumerate_invariant_mls(g), sim_classes(g)
        assert up_majority_count(g, systems, classes) == 2**s_value
        with pytest.raises(ConsistencyError, match="not 2\\^s"):
            up_majority_count(g, systems, classes[1:])
    # even groups with no half-size self-linked sets: unique system, 2^0
    for name in ("C2", "C4", "C2xC2", "D6", "C2xC2xC2"):
        g = build_group(name)
        assert up_majority_count(g, enumerate_invariant_mls(g), sim_classes(g)) == 1


def test_partition_condition():
    ok, witness = partition_condition(build_group("C5"))
    assert ok and witness is None
    assert partition_condition(build_group("C1"))[0]
    g4 = build_group("C4")
    ok, witness = partition_condition(g4)
    assert not ok
    a, b = witness
    assert a | b == g4.full_mask and a & b == 0
    assert not oracle_self_linked(g4.mul, a)
    assert not oracle_self_linked(g4.mul, b)


def test_partition_condition_matches_oddness():
    for name in CATALOG_LE8:
        g = build_group(name)
        assert partition_condition(g)[0] == is_odd_group(g)


def test_odd_equivalences(lam_table):
    odd_names = {"C1", "C3", "C5", "C7"}
    for name in CATALOG_LE8:
        g = build_group(name)
        table = lam_table(name) if g.order <= 5 else None
        zeros = None if table is None else right_zeros(table)
        assert odd_equivalences(g, enumerate_invariant_mls(g), right_zeros=zeros) == (name in odd_names)
        if table is not None:
            assert bool(zeros) == (name in odd_names)


def test_odd_equivalences_read_the_table(lam_table):
    """Right zeros of a lambda table that disagree with the group's other conditions raise."""
    for name, other in (("C2", "C3"), ("C3", "C2")):
        with pytest.raises(ConsistencyError, match="disagree"):
            g = build_group(name)
            odd_equivalences(g, enumerate_invariant_mls(g), right_zeros=right_zeros(lam_table(other)))


def test_odd_equivalence_d6_all_false():
    g = build_group("D6")
    systems = enumerate_invariant_mls(g)
    assert odd_equivalences(g, systems) is False
    assert not partition_condition(g)[0]
    assert not is_odd_group(g)
    assert len(systems) == 1
    assert not systems[0].is_maximal_linked()


def test_self_linked_subsets_sorted():
    g = build_group("C6")
    subsets = self_linked_subsets(g)
    assert subsets == sorted(subsets)
    assert all(oracle_self_linked(g.mul, m) for m in subsets)


def test_compatibility_graph_matches_difference_sets():
    """The vertices are the self-linked sets, and compatibility is all or nothing between orbits.

    The relation comes from the multiplication-table oracle, which is
    checked against the definition, A meeting every translate xB, on
    every vertex pair up to order 6.
    Orbits are found by translating through the multiplication table;
    between two orbits every member pair or none is compatible, and
    which one is decided by the least members, the keys.
    """
    assert {"C9", "C3xC3", "D10", "C10"} <= set(CATALOG_LE10)
    for name in CATALOG_LE10:
        g = build_group(name)
        full = g.full_mask
        vertices = self_linked_subsets(g)
        assert vertices == [m for m in range(1, full + 1) if oracle_self_linked(g.mul, m)]
        compatible = oracle_compatible(g.mul)
        assert np.flatnonzero(compatible.diagonal()).tolist() == vertices, name
        relation = compatible[np.ix_(vertices, vertices)]
        assert (relation == relation.T).all(), name
        if g.order <= 6:
            assert relation.tolist() == [
                [all(a & oracle_translate(g.mul, x, b) for x in g.elements()) for b in vertices] for a in vertices
            ]
        keys, orbit_of = np.unique(
            [min(oracle_translate(g.mul, x, v) for x in g.elements()) for v in vertices], return_inverse=True
        )
        members = np.eye(len(keys), dtype=np.int64)[orbit_of]  # members[i, o]: vertex i lies in orbit o
        sizes = members.sum(axis=0)
        links = members.T @ relation.astype(np.int64) @ members  # compatible member pairs per orbit pair
        assert ((links == 0) | (links == np.outer(sizes, sizes))).all(), name
        assert (links.diagonal() == sizes**2).all(), name
        assert ((links > 0) == compatible[np.ix_(keys, keys)]).all(), name


def _clique_of(vertices, family):
    return sum(1 << i for i, v in enumerate(vertices) if family.bitmap >> v & 1)


def test_closure_certificates_reject_open_cliques():
    for name in ("C6", "C7", "Q8"):
        g = build_group(name)
        shifts = shift_table(g)
        vertices = self_linked_subsets(g)
        index = {v: i for i, v in enumerate(vertices)}
        for family in enumerate_invariant_mls(g):
            clique = _clique_of(vertices, family)
            assert _closed_families(g, shifts, vertices, [clique]) == [family]
            # a minimal set with another translate: dropping it keeps the
            # clique superset-closed but loses one translate
            m = next(m for m in family.minimal_sets if any(oracle_translate(g.mul, x, m) != m for x in g.elements()))
            with pytest.raises(ConsistencyError, match="not shift-closed"):
                _closed_families(g, shifts, vertices, [clique & ~(1 << index[m])])
            # the whole group is its only translate: dropping it keeps the
            # clique shift-closed but loses one superset
            with pytest.raises(ConsistencyError, match="not superset-closed"):
                _closed_families(g, shifts, vertices, [clique & ~(1 << index[g.full_mask])])


def test_orbit_graph_cliques_are_the_vertex_cliques():
    """The cliques found on the orbit graph are the maximal cliques of the oracle's vertex graph."""
    for name in CATALOG_LE10:
        g = build_group(name)
        vertices = self_linked_subsets(g)
        relation = oracle_compatible(g.mul)[np.ix_(vertices, vertices)]
        np.fill_diagonal(relation, False)
        adj = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in relation]
        assert sorted(_invariant_cliques(shift_table(g), vertices)) == sorted(_maximal_cliques(adj)), name


def test_batched_certificates_reject_one_open_clique():
    """One opened clique among all 70 of C9 fails the batch, whichever it is."""
    g = build_group("C9")
    shifts = shift_table(g)
    vertices = self_linked_subsets(g)
    index = {v: i for i, v in enumerate(vertices)}
    systems = enumerate_invariant_mls(g, allow_large=True)
    cliques = [_clique_of(vertices, family) for family in systems]
    assert len(cliques) == 70
    assert _closed_families(g, shifts, vertices, cliques) == systems
    for k, family in enumerate(systems):
        m = next(m for m in family.minimal_sets if any(oracle_translate(g.mul, x, m) != m for x in g.elements()))
        for dropped, match in ((m, "not shift-closed"), (g.full_mask, "not superset-closed")):
            opened = cliques[:k] + [cliques[k] & ~(1 << index[dropped])] + cliques[k + 1 :]
            with pytest.raises(ConsistencyError, match=match):
                _closed_families(g, shifts, vertices, opened)


def test_is_maximal_linked_matches_transversal_on_invariant_systems():
    flags = {}
    for name in CATALOG_LE8:
        for s in enumerate_invariant_mls(build_group(name)):
            assert s.is_maximal_linked() == (s.transversal() == s)
            flags.setdefault(name, []).append(s.is_maximal_linked())
    assert flags["D6"] == [False]
    assert flags["C7"] == [True] * 3


def _relabelled(g, sigma):
    """g with each element a renamed sigma[a], its table rebuilt and checked by _make_group."""
    mul, names = [[0] * g.order for _ in g.elements()], [""] * g.order
    for a in g.elements():
        names[sigma[a]] = g.element_names[a]
        for b in g.elements():
            mul[sigma[a]][sigma[b]] = sigma[g.mul[a][b]]
    return _make_group(g.name, mul, names)


def _relabelling_differences(g, h, sigma):
    """The table-free analyses whose results on g, mapped through sigma, differ from their results on h.

    Sizes and verdicts are compared as they are, sets of masks and families as sorted sigma-images.
    """
    image = [oracle_relabel(sigma, mask) for mask in range(1 << g.order)].__getitem__
    family = lambda f: SetFamily(f.ground_size, tuple(sorted(map(image, f.minimal_sets))))
    linked = self_linked_subsets(h)
    differ = [] if sl(h) == sl(g) else ["sl"]
    if linked != sorted(map(image, self_linked_subsets(g))):
        differ.append("self_linked_subsets")
    holds, witness = partition_condition(g)
    if partition_condition(h)[0] != holds or (witness and set(map(image, witness)) & set(linked)):
        differ.append("partition_condition")
    if g.order <= 12:
        pair = noncommuting_pair(g)
        if pair is None:
            same = noncommuting_pair(h) is None
        else:  # h's verdict is certified by the image pair: its product is the image's, and it does not commute
            a, b = map(family, pair)
            same = circ(h, a, b) == family(circ(g, *pair)) != circ(h, b, a)
        if not same:
            differ.append("noncommuting_pair")
    if g.order <= 10:
        systems = sorted(map(family, enumerate_invariant_mls(g, allow_large=True)), key=lambda f: f.minimal_sets)
        if enumerate_invariant_mls(h, allow_large=True) != systems:
            differ.append("enumerate_invariant_mls")
        if g.order % 2 == 0:
            classes = tuple(sorted(tuple(sorted(map(image, c))) for c in sim_classes(g)))
            if sim_classes(h) != classes:
                differ.append("sim_classes")
    if g.order <= 6 and system_counts(h) != system_counts(g):
        differ.append("system_counts")
    return differ


def test_table_free_analyses_do_not_depend_on_the_labelling():
    """One seeded relabelling per catalog group of order <= 13: every result maps onto the relabelled group's."""
    rng = random.Random(15)
    for name in SL_TABLE:
        g = build_group(name)
        sigma = [0, *rng.sample(range(1, g.order), g.order - 1)]
        assert _relabelling_differences(g, _relabelled(g, sigma), sigma) == [], name


def test_a_relabelling_read_through_the_wrong_map_differs():
    """Results read through a map that is not the relabelling fail the comparison, so the test above can fail.

    The wrong map is sigma after swapping elements 1 and 2, which is no automorphism of these groups.
    """
    mapped = ["self_linked_subsets", "noncommuting_pair", "enumerate_invariant_mls", "sim_classes"]
    for name, want in (("C6", mapped), ("D6", ["noncommuting_pair"]), ("C8", mapped), ("D10", mapped)):
        g = build_group(name)
        sigma = [0, *random.Random(name).sample(range(1, g.order), g.order - 1)]
        wrong = [sigma[a] for a in (0, 2, 1, *range(3, g.order))]
        h = _relabelled(g, sigma)
        assert _relabelling_differences(g, h, sigma) == [], name
        assert _relabelling_differences(g, h, wrong) == want, name
