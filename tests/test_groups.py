from __future__ import annotations

import hashlib
import random

import pytest

from superx.errors import CapacityError, ConsistencyError, GroupParseError
from superx.expected import SL_TABLE
from superx.groups import _make_group, build_group, element_order, is_odd_group, shift_table
from superx.invariants import self_linked_subsets
from superx.semigroups import from_group, is_commutative
from oracles import (
    bits_of,
    oracle_element_order,
    oracle_induced_table,
    oracle_subgroups,
    oracle_translate,
)

CATALOG = [
    "C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "D6", "C7", "C8", "C2xC4",
    "D8", "Q8", "C2xC2xC2", "C9", "C3xC3", "C10", "D10", "C11", "C12",
    "C2xC6", "D12", "A4", "C3:C4", "C13",
]


def test_build_group_orders():
    assert build_group("C1").order == 1
    assert build_group("Q8").order == 8
    assert build_group("C3:C4").order == 12
    assert build_group("A4").order == 12
    assert build_group("D12").order == 12


def test_q8_has_one_involution():
    g = build_group("Q8")
    assert sum(1 for x in g.elements() if element_order(g, x) == 2) == 1


def test_c3_c4_is_nonabelian_with_normal_c3():
    g = build_group("C3:C4")
    assert not is_commutative(from_group(g))[0]
    order3 = [h for h in oracle_subgroups(g.mul) if h.bit_count() == 3]
    assert len(order3) == 1
    h = order3[0]
    # normality: xHx^-1 = H for all x
    for x in g.elements():
        conj = 0
        for a in range(12):
            if h >> a & 1:
                conj |= 1 << g.mul[g.mul[x][a]][g.inv[x]]
        assert conj == h


# Every group of the sl table, the largest orders and the odd spellings;
# the digest covers each group and the standalone group of each subgroup,
# named "<group>|<mask>" and renumbered in ascending element order.
PINNED_NAMES = [
    "C1", *SL_TABLE, "C14", "D14", "C15", "C3xC5", "C16", "C2xC8", "C4xC4",
    "C2xC2xC4", "C2xC2xC2xC2", "D16", "C1xC7", " C5 ", "C01", "C2xC1",
]
CATALOG_DIGEST = "c471445110f30683f2ed88656160cfe7b7c15971d1ad9ff015ae3ec4f61197ad"


def test_catalog_and_subgroups_pinned():
    digest = hashlib.sha256()
    for name in PINNED_NAMES:
        g = build_group(name)
        groups = [g]
        for h in oracle_subgroups(g.mul):
            members = bits_of(h)
            names = [g.element_names[v] for v in members]
            groups.append(_make_group(f"{g.name}|{h:#x}", oracle_induced_table(g.mul, members), names))
        for x in groups:
            digest.update(repr((x.name, x.mul, x.inv, x.element_names)).encode())
    assert len(PINNED_NAMES) == 39
    assert digest.hexdigest() == CATALOG_DIGEST


# A name with two faults reports the parse fault before the order cap.
BAD_NAMES = [
    ("NOPE", GroupParseError, "unknown group name 'NOPE'"),
    ("", GroupParseError, "unknown group name ''"),
    ("C0", GroupParseError, "bad cyclic order in 'C0'"),
    ("C0xZ", GroupParseError, "unknown group name 'C0xZ'"),
    ("C0xC99", GroupParseError, "bad cyclic order in 'C0xC99'"),
    ("C17", CapacityError, "group order 17 exceeds the cap of 16"),
    ("C5xC4", CapacityError, "group order 20 exceeds the cap of 16"),
    ("C2xC3xC3", CapacityError, "group order 18 exceeds the cap of 16"),
    ("D7", GroupParseError, "dihedral groups need an even order >= 6, got 'D7'"),
    ("D4", GroupParseError, "dihedral groups need an even order >= 6, got 'D4'"),
    ("D18", CapacityError, "group order 18 exceeds the cap of 16"),
    ("C2x", GroupParseError, "unknown group name 'C2x'"),
    ("xC2", GroupParseError, "unknown group name 'xC2'"),
    ("C2xD6", GroupParseError, "unknown group name 'C2xD6'"),
    ("Q16", GroupParseError, "unknown group name 'Q16'"),
    ("C-1", GroupParseError, "unknown group name 'C-1'"),
]


def test_parse_errors():
    for name, error, message in BAD_NAMES:
        with pytest.raises(error) as info:
            build_group(name)
        assert type(info.value) is error and str(info.value) == message, name


@pytest.mark.parametrize(
    "mul",
    [
        [[0, 1, 2], [1, 2, 0], [2, 0]],  # ragged
        [[1, 0], [0, 1]],  # C2 with its identity at 1
        [[0, 1], [1, 2]],  # entry out of range
        [[0, 1, 2], [1, 1, 0], [2, 0, 2]],  # not associative: (1*1)*2 = 0, 1*(1*2) = 1
        [[0, 1], [1, 1]],  # a monoid: 1 has no inverse
    ],
)
def test_make_group_rejects_non_groups(mul):
    with pytest.raises(ConsistencyError):
        _make_group("bad", mul, [str(i) for i in range(len(mul))])


def test_identity_is_zero_and_axioms_hold():
    # construction validates associativity/identity/inverses exhaustively
    for name in CATALOG:
        g = build_group(name)
        assert g.mul[0] == tuple(g.elements()) and all(row[0] == x for x, row in enumerate(g.mul))
        assert all(g.inv[g.inv[x]] == x for x in g.elements())


def test_cyclic_elements_are_generator_powers():
    g = build_group("C6")
    assert all(g.mul[1][i] == (i + 1) % 6 for i in range(6))


def test_element_order_examples():
    assert element_order(build_group("C5"), 1) == 5
    assert element_order(build_group("Q8"), 1) == 2  # the element -1
    d6 = build_group("D6")
    # reflections live at indices 3..5; oracle recomputes by powering
    for r in range(3, 6):
        assert element_order(d6, r) == oracle_element_order(d6.mul, r) == 2


def test_element_order_divides_group_order():
    for name in CATALOG:
        g = build_group(name)
        for x in g.elements():
            assert g.order % element_order(g, x) == 0


def test_is_odd_group():
    assert is_odd_group(build_group("C5"))
    assert is_odd_group(build_group("C3"))
    assert not is_odd_group(build_group("C6"))
    assert is_odd_group(build_group("C9"))
    assert not is_odd_group(build_group("D6"))


def test_translate_identity_and_size():
    for name in ("C4", "D6", "Q8"):
        g = build_group(name)
        assert shift_table(g)[0].tolist() == list(range(1 << g.order))
    g = build_group("C5")
    shifts = shift_table(g)
    for x in g.elements():
        for mask in range(32):
            assert int(shifts[x, mask]).bit_count() == mask.bit_count()


def test_translate_examples():
    c4 = build_group("C4")  # elements are powers of i: 0=1, 1=i, 2=-1, 3=-i
    assert shift_table(c4)[1, 0b0011] == oracle_translate(c4.mul, 1, 0b0011) == 0b0110
    c5 = build_group("C5")
    assert shift_table(c5)[1, 0b00101] == 0b01010  # {0,2} -> {1,3}


def test_translate_round_trip():
    for name in ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "D6"):
        g = build_group(name)
        shifts = shift_table(g)
        for x in g.elements():
            xi = g.inv[x]
            for mask in range(1 << g.order):
                assert shifts[x, shifts[xi, mask]] == mask
    rng = random.Random(7)
    for name in ("Q8", "C12", "A4", "C3:C4"):
        g = build_group(name)
        shifts = shift_table(g)
        for _ in range(200):
            x = rng.randrange(g.order)
            mask = rng.randrange(1 << g.order)
            assert shifts[x, shifts[g.inv[x], mask]] == mask


def test_difference_set_examples():
    """A set A is self-linked, meeting each of its left translates, iff its difference set AA^-1 is the group."""
    c8 = build_group("C8")
    assert 0b00011011 in self_linked_subsets(c8)  # {e, a, a3, a4}
    cube = build_group("C2xC2xC2")
    assert 0b10111 not in self_linked_subsets(cube)  # {0, 1, 2, 4} misses its translate by 7


def test_shift_table_is_left_translation():
    for name in ("C6", "D6", "Q8"):
        g = build_group(name)
        shifts = shift_table(g)
        assert shifts.shape == (g.order, 1 << g.order)
        assert not shifts.flags.writeable
        assert shift_table(g) is shifts
        subsets = range(1 << g.order)
        inverse_rows = shifts[list(g.inv)].tolist()  # as circ and build_lambda_table read them
        for x in g.elements():
            assert shifts[x].tolist() == [oracle_translate(g.mul, x, m) for m in subsets]
            assert inverse_rows[x] == [oracle_translate(g.mul, g.inv[x], m) for m in subsets]
