from __future__ import annotations

import random

import numpy as np
import pytest

from superx import semigroups
from superx.c5 import canonical_names
from superx.errors import CapacityError, ConsistencyError
from superx.groups import build_group
from superx.semigroups import (
    MAX_ORDER,
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
from superx.superext import principal_indices
from superx.verify import isomorphism_maps
from oracles import (
    find_isomorphism,
    is_invariant_mls,
    oracle_central_elements,
    oracle_direct_product,
    oracle_first_asymmetric_cell,
    oracle_induced_table,
    oracle_maximal_subgroup,
    oracle_left_zeros,
    oracle_minimal_ideal,
    oracle_right_zeros,
    oracle_symmetric_rows,
    traced_peak,
)


def _names(table):
    names = canonical_names()
    return lambda i: names[table.elements[i].minimal_sets]


def test_table_validation_rejects_non_associative():
    with pytest.raises(ConsistencyError):
        SemigroupTable(np.array([[1, 1], [0, 0]], dtype=np.int32))
    with pytest.raises(ConsistencyError):
        SemigroupTable(np.array([[0, 2], [1, 0]], dtype=np.int32))


def test_table_validation_rejects_empty_oversized_and_out_of_range_tables():
    with pytest.raises(ConsistencyError, match="at least one element"):
        SemigroupTable(np.zeros((0, 0), dtype=np.int32))
    # a view of one cell: the cap is checked before any value is read
    with pytest.raises(CapacityError):
        SemigroupTable(np.broadcast_to(np.uint16(0), (MAX_ORDER + 1, MAX_ORDER + 1)))
    # 3 is n; cast to uint16 first, -1 would read 65,535, and -65,536 and
    # 65,536 would read 0, a valid null semigroup: the check sees the input
    for bad in (-1, 3, -MAX_ORDER, MAX_ORDER):
        prod = np.zeros((3, 3), dtype=np.int64)
        prod[1, 2] = bad
        with pytest.raises(ConsistencyError, match="out of range"):
            SemigroupTable(prod)
    with pytest.raises(ConsistencyError, match="integers"):
        SemigroupTable(np.array([[0.5, 1.9], [1.2, 0.0]]))  # would truncate to the C2 table
    with pytest.raises(ConsistencyError, match="square"):
        SemigroupTable(np.zeros((2, 3), dtype=np.int32))
    with pytest.raises(ConsistencyError, match="element list"):
        SemigroupTable(np.zeros((2, 2), dtype=np.int32), elements=["a", "b", "c"])


def test_every_table_is_stored_as_uint16(lam_table):
    group = from_group(build_group("C3"))
    tables = [
        lam_table("C6"),
        group,
        adjoin_zero(group),
        adjoin_identity(group),
        direct_product(group, group),
        SemigroupTable(np.zeros((3, 3), dtype=np.int64)),
    ]
    for t in tables:
        assert t.product.dtype == np.uint16, t.name
    stored = np.zeros((3, 3), dtype=np.uint16)
    assert SemigroupTable(stored).product is stored  # a uint16 input is not copied


def test_direct_product_above_the_cap_is_refused():
    """257 x 256 elements: p1 * n2 + p2 would wrap in uint16, so nothing is broadcast."""
    null = lambda n: SemigroupTable(np.zeros((n, n), dtype=np.uint16))
    with pytest.raises(CapacityError):
        direct_product(null(257), null(256))


def test_sampled_associativity_above_the_exhaustive_limit():
    n = 101
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    cyclic = (a + b) % n
    skew = (a + 2 * b) % n  # (ab)c = a + 2b + 2c, a(bc) = a + 2b + 4c
    assert SemigroupTable(cyclic).order == n
    with pytest.raises(ConsistencyError):
        SemigroupTable(skew)
    assert not sampled_associative(skew, random.Random(0))
    # the check draws exactly one 64-bit word per index, three per sample
    rng, ref = random.Random(7), random.Random(7)
    assert sampled_associative(cyclic, rng)
    ref.randbytes(8 * 3 * 10_000)
    assert rng.random() == ref.random()


def test_idempotent_counts(lam_table):
    assert len(idempotents(lam_table("C2"))) == 1
    assert len(idempotents(lam_table("C4"))) == 2
    assert len(idempotents(lam_table("C2xC2"))) == 2
    assert len(idempotents(lam_table("C3"))) == 2
    assert len(idempotents(lam_table("C5"))) == 5


def test_diagonal_scans_match_the_loops(lam_table):
    """idempotents and sqrt_of_idempotents agree with the element-by-element definitions."""
    for name in ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "D6"):
        t = lam_table(name)
        p = t.product.tolist()
        assert idempotents(t) == [x for x in range(t.order) if p[x][x] == x], name
        assert sqrt_of_idempotents(t) == [x for x in range(t.order) if p[p[x][x]][p[x][x]] == p[x][x]], name
    assert (len(idempotents(lam_table("C6"))), len(sqrt_of_idempotents(lam_table("C6")))) == (49, 810)


def test_c5_idempotent_names(lam_table):
    t = lam_table("C5")
    nm = _names(t)
    assert sorted(nm(i) for i in idempotents(t)) == sorted(["U", "Z", "Λ4", "Λ", "2Λ"])


def test_zeros(lam_table):
    t3 = lam_table("C3")
    z3 = zero(t3)
    assert z3 is not None
    assert t3.elements[z3].minimal_sets == (3, 5, 6)
    t5 = lam_table("C5")
    assert _names(t5)(zero(t5)) == "Z"
    assert zero(lam_table("C4")) is None
    assert zero(lam_table("C2xC2")) is None
    assert zero(lam_table("C1")) is not None


def test_left_zero_only_with_zero(lam_table):
    for name in ("C1", "C2", "C3", "C4", "C2xC2", "C5"):
        t = lam_table(name)
        lz = left_zeros(t)
        z = zero(t)
        if z is None:
            assert lz == []
        else:
            assert lz == [z]


def test_right_zeros_are_shift_invariant_systems(lam_table):
    """The right zeros of lambda(G) are exactly its invariant maximal linked systems."""
    for name in ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "D6"):
        g = build_group(name)
        t = lam_table(name)
        invariant = [i for i, s in enumerate(t.elements) if is_invariant_mls(g, s)]
        assert right_zeros(t) == invariant, name


def test_commutativity(lam_table):
    assert is_commutative(lam_table("C1"))[0]
    assert is_commutative(lam_table("C4"))[0]
    assert is_commutative(lam_table("C2xC2"))[0]
    ok, witness = is_commutative(lam_table("C5"))
    assert not ok
    i, j = witness
    p = lam_table("C5").product
    assert p[i, j] != p[j, i]
    # least witness: everything lexicographically before it commutes
    for a in range(i + 1):
        for b in range(j if a == i else p.shape[0]):
            assert p[a, b] == p[b, a]


def test_commutativity_witness_c6(lam_table):
    ok, witness = is_commutative(lam_table("C6"))
    assert not ok
    assert witness == (2, 3)
    # brute force: scan pairs in lexicographic order up to the first asymmetric one
    p = lam_table("C6").product
    n = p.shape[0]
    first = next((a, b) for a in range(n) for b in range(n) if p[a, b] != p[b, a])
    assert first == witness


def test_zeros_and_centre_match_loops(lam_table):
    tables = [lam_table(name) for name in ("C1", "C2", "C3", "C4", "C2xC2", "C5")]
    tables += [
        adjoin_zero(lam_table("C4")),
        adjoin_identity(from_group(build_group("C3"))),
        direct_product(lam_table("C2"), lam_table("C3")),
        SemigroupTable(np.array([[0, 1], [0, 1]], dtype=np.int32)),
    ]
    for t in tables:
        p = t.product.tolist()
        assert right_zeros(t) == oracle_right_zeros(p), t.name
        assert left_zeros(t) == oracle_left_zeros(p), t.name
        assert central_elements(t) == oracle_central_elements(p), t.name


@pytest.mark.parametrize("side", ["right", "left"])
def test_zero_bands_span_several_row_blocks(side):
    """Order 600 is more than two _TILE blocks; in a band every candidate survives every block."""
    n = 600
    ids = np.arange(n)
    prod = np.tile(ids, (n, 1)) if side == "right" else np.repeat(ids[:, None], n, axis=1)
    t = SemigroupTable(prod, name=f"{side}-zero band")
    p = prod.tolist()
    assert right_zeros(t) == oracle_right_zeros(p) == (list(range(n)) if side == "right" else [])
    assert left_zeros(t) == oracle_left_zeros(p) == (list(range(n)) if side == "left" else [])
    late = np.tile(ids, (n, 1))
    late[n - 1, 5] = 0  # column 5 drops out in the last block only
    assert semigroups._fixed_columns(late) == [z for z in range(n) if z != 5]


def test_centre_and_witness_match_the_whole_table_order6(lam_table):
    for name in ("C6", "D6"):
        t = lam_table(name)
        assert central_elements(t) == np.flatnonzero(oracle_symmetric_rows(t.product)).tolist(), name
        assert is_commutative(t) == (False, oracle_first_asymmetric_cell(t.product)), name


@pytest.mark.parametrize("a, b", [(255, 256), (2600, 2645), (3, 2645)])
def test_tile_edges_on_a_null_semigroup_with_a_left_zero_band(a, b):
    """Order 2,646 is not a multiple of the tile; the one non-commuting pair (a, b) sits on a tile edge,
    in the last partial tile, or between the first and last row blocks."""
    n = 2646
    prod = np.zeros((n, n), dtype=np.int32)
    prod[a, [a, b]] = a
    prod[b, [a, b]] = b
    t = SemigroupTable(prod)
    assert is_commutative(t) == (False, (a, b))
    assert central_elements(t) == [c for c in range(n) if c not in (a, b)]
    assert central_elements(t) == np.flatnonzero(oracle_symmetric_rows(t.product)).tolist()


def test_commutation_passes_allocate_no_whole_table_mask(lam_table):
    """A warm call on lambda(C6) peaks far below the 7 MB of a 2,646^2 bool mask."""
    t = lam_table("C6")
    for f in (is_commutative, central_elements):
        f(t)
        peak = traced_peak(lambda: f(t))
        assert peak < 2**20, (f.__name__, peak)


def test_direct_product_matches_loops(lam_table):
    tables = [
        lam_table("C3"),
        from_group(build_group("D6")),
        adjoin_identity(from_group(build_group("C2"))),
        SemigroupTable(np.array([[0, 1], [0, 1]], dtype=np.int32)),
    ]
    for t1 in tables:
        for t2 in tables:
            prod = direct_product(t1, t2)
            assert prod.product.tolist() == oracle_direct_product(t1.product.tolist(), t2.product.tolist())


def test_minimal_ideal(lam_table):
    t5 = lam_table("C5")
    ideal5 = minimal_ideal(t5)
    assert [_names(t5)(i) for i in ideal5] == ["Z"]
    t2 = lam_table("C2")
    assert minimal_ideal(t2) == frozenset({0, 1})
    t4 = lam_table("C4")
    ideal4 = minimal_ideal(t4)
    assert len(ideal4) == 8
    sub = SemigroupTable(oracle_induced_table(t4.product, ideal4))
    model = direct_product(from_group(build_group("C2")), from_group(build_group("C4")))
    assert find_isomorphism(sub, model) is not None


def test_minimal_ideal_matches_oracle(lam_table):
    tables = [lam_table(name) for name in ("C1", "C2", "C3", "C4", "C2xC2", "C5")]
    tables += [
        adjoin_zero(lam_table("C4")),
        adjoin_zero(from_group(build_group("C3"))),
        direct_product(lam_table("C2"), lam_table("C3")),
        direct_product(adjoin_identity(from_group(build_group("C2"))), from_group(build_group("C4"))),
    ]
    for t in tables:
        assert minimal_ideal(t) == oracle_minimal_ideal(t.product.tolist()), t.name


def test_minimal_ideal_order6(lam_table):
    for name in ("C6", "D6"):
        t = lam_table(name)
        kernel = minimal_ideal(t)
        assert len(kernel) == 18, name
        # the kernel absorbs any product of all elements, in any order
        p = t.product
        x = t.order - 1
        for s in range(t.order - 2, -1, -1):
            x = int(p[x, s])
        assert x in kernel, name


def test_minimal_ideal_rejects_a_fold_outside_the_kernel(lam_table, monkeypatch):
    """With the fold forced to delta_e, J(x) is the whole table and the certificate must fail."""
    for name in ("C5", "C6"):
        t = lam_table(name)
        identity = principal_indices(t.elements)[0]
        monkeypatch.setattr(semigroups, "_product_of_all", lambda _: identity)
        with pytest.raises(ConsistencyError, match="generates a different ideal"):
            minimal_ideal(t)


def test_maximal_subgroups(lam_table):
    t5 = lam_table("C5")
    nm = _names(t5)
    groups5 = maximal_subgroups(t5)
    assert {nm(e): len(h) for e, h in groups5.items()} == {"U": 5, "Λ4": 5, "Λ": 5, "2Λ": 5, "Z": 1}
    assert groups5[zero(t5)] == [zero(t5)]
    t4 = lam_table("C4")
    ideal_idem = [e for e in idempotents(t4) if e in minimal_ideal(t4)]
    assert len(ideal_idem) == 1
    grp = SemigroupTable(oracle_induced_table(t4.product, maximal_subgroups(t4)[ideal_idem[0]]))
    assert grp.order == 8
    assert find_isomorphism(grp, direct_product(from_group(build_group("C2")), from_group(build_group("C4")))) is not None


def test_maximal_subgroups_match_the_block_oracle(lam_table):
    """The idempotent-power pass finds the same units as the whole eSe block, at every idempotent."""
    group = from_group(build_group("D6"))
    band = SemigroupTable(np.repeat(np.arange(5)[:, None], 5, axis=1), name="left-zero band")
    tables = [lam_table(name) for name in ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "D6")]
    tables += [
        group,
        adjoin_zero(from_group(build_group("C3"))),
        direct_product(adjoin_identity(from_group(build_group("C2"))), from_group(build_group("C4"))),
        SemigroupTable(np.zeros((5, 5), dtype=np.int32), name="null"),
        band,
    ]
    for t in tables:
        groups = maximal_subgroups(t)
        assert list(groups) == idempotents(t), t.name
        for e, members in groups.items():
            assert members == oracle_maximal_subgroup(t.product, e), (t.name, e)
    assert maximal_subgroups(group) == {0: list(range(6))}
    assert maximal_subgroups(band) == {e: [e] for e in range(5)}


def test_maximal_subgroups_reject_a_block_that_leaves_its_group():
    """In C3 + zero with 1 * 2 forced to the zero, H_0 = {0, 1} but 1 * 1 = 2 is outside it."""
    t = adjoin_zero(from_group(build_group("C3")))
    assert maximal_subgroups(t) == {0: [0, 1, 2], 3: [3]}
    t.product[1, 2] = 3
    with pytest.raises(ConsistencyError, match="not closed under products"):
        maximal_subgroups(t)


def test_maximal_subgroups_stop_when_an_element_has_no_idempotent_power():
    """With e * e forced to a in C3 no element is idempotent, so e has no idempotent power."""
    t = from_group(build_group("C3"))
    t.product[0, 0] = 1
    with pytest.raises(ConsistencyError, match="no idempotent power"):
        maximal_subgroups(t)


def test_central_elements(lam_table):
    t5 = lam_table("C5")
    assert sorted(_names(t5)(i) for i in central_elements(t5)) == sorted(
        ["U", "U+1", "U+2", "U-2", "U-1", "Z"]
    )
    t3 = lam_table("C3")
    assert central_elements(t3) == list(range(4))
    t2 = lam_table("C2")
    assert central_elements(t2) == [0, 1]


def test_sqrt_of_idempotents(lam_table):
    t5 = lam_table("C5")
    assert len(sqrt_of_idempotents(t5)) == 41
    # exponent-2 groups: x^4 = x^2 everywhere
    for name in ("C2", "C2xC2"):
        t = from_group(build_group(name))
        assert sqrt_of_idempotents(t) == list(range(t.order))
    # literal definition: in the 4-element system space over C3,
    # exactly the elements whose square is idempotent qualify
    t3 = lam_table("C3")
    p = t3.product
    direct = [x for x in range(4) if p[p[x, x], p[x, x]] == p[x, x]]
    assert sqrt_of_idempotents(t3) == direct
    idem = set(idempotents(t3))
    assert direct == [x for x in range(4) if int(p[x, x]) in idem]


def test_adjoin_constructions():
    c3 = from_group(build_group("C3"))
    with_zero = adjoin_zero(c3)
    assert with_zero.order == 4
    assert len(idempotents(with_zero)) == 2
    assert zero(with_zero) == 3
    c2_unit = adjoin_identity(from_group(build_group("C2")))
    assert c2_unit.order == 3
    assert len(idempotents(c2_unit)) == 2
    prod = direct_product(from_group(build_group("C2")), from_group(build_group("C2")))
    assert prod.order == 4
    assert is_commutative(prod)[0]


def test_find_isomorphism_claims(lam_table):
    t3 = lam_table("C3")
    assert find_isomorphism(t3, adjoin_zero(from_group(build_group("C3")))) is not None
    c2_unit = adjoin_identity(from_group(build_group("C2")))
    for name in ("C4", "C2xC2"):
        t = lam_table(name)
        model = direct_product(c2_unit, from_group(build_group(name)))
        iso = find_isomorphism(t, model)
        assert iso is not None
        # verify the bijection preserves products
        p, q = t.product, model.product
        n = t.order
        assert sorted(iso) == list(range(n))
        for a in range(n):
            for b in range(n):
                assert q[iso[a], iso[b]] == iso[int(p[a, b])]


def test_find_isomorphism_negative():
    c4 = from_group(build_group("C4"))
    klein = from_group(build_group("C2xC2"))
    assert find_isomorphism(c4, klein) is None
    assert find_isomorphism(c4, from_group(build_group("C3"))) is None


def test_is_isomorphism_on_the_verify_maps():
    maps = {name: (model, lam, phi) for name, model, lam, phi in isomorphism_maps()}
    assert len(maps) == 3
    for name, (model, lam, phi) in maps.items():
        assert is_isomorphism(model, lam, phi), name
    model, lam, phi = maps["lambda(C4) ~ (C2+unit)xC4"]
    swapped = list(phi)
    swapped[0], swapped[1] = phi[1], phi[0]
    assert not is_isomorphism(model, lam, swapped)
    # phi[0] is the idempotent f, so the constant map is a homomorphism that is no bijection
    constant = [phi[0]] * len(phi)
    assert (lam.product[np.ix_(constant, constant)] == np.array(constant)[model.product]).all()
    assert not is_isomorphism(model, lam, constant)
    assert not is_isomorphism(model, lam, phi[:-1])
    assert not is_isomorphism(model, lam, phi + [phi[0]])
    # a bijection between tables of equal order that are not isomorphic
    klein_model = maps["lambda(C2xC2) ~ (C2+unit)xC2xC2"][0]
    assert not is_isomorphism(klein_model, lam, phi)
