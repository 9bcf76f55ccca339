"""Finite semigroups as index tables, with structure analyses.

A SemigroupTable is an element list plus an n x n product table of
element indices; element i prints as ``str(elements[i])``.  The table is
stored as uint16 whatever the input's integer dtype, so orders 1..MAX_ORDER
(65,536) fit; a larger order is a CapacityError before any cell is read,
and the range check runs on the input as given, so a negative cell or
one >= n never wraps through the cast.  Associativity is verified
exhaustively up to order 100 and on sampled triples above that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, ConsistencyError

if TYPE_CHECKING:
    from .groups import FiniteGroup

MAX_ORDER = 1 << 16  # uint16 cells hold the indices 0..65,535
ASSOC_EXHAUSTIVE_LIMIT = 100
ASSOC_SAMPLES = 10_000
_TILE = 256


@dataclass(eq=False)
class SemigroupTable:
    product: np.ndarray
    elements: list = field(default_factory=list)
    name: str = ""

    def __post_init__(self):
        p = np.asarray(self.product)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ConsistencyError("product table must be square")
        if p.dtype.kind not in "iu":  # a float cell would be truncated by the cast
            raise ConsistencyError("product table cells must be integers")
        n = p.shape[0]
        if n > MAX_ORDER:
            raise CapacityError(f"semigroup tables are supported up to order {MAX_ORDER}")
        if n == 0:
            raise ConsistencyError("a semigroup has at least one element")
        if (p.dtype.kind == "i" and p.min() < 0) or p.max() >= n:  # an unsigned cell is never negative
            raise ConsistencyError("product table index out of range")
        self.product = p.astype(np.uint16, copy=False)
        if not self.elements:
            self.elements = list(range(n))
        if len(self.elements) != n:
            raise ConsistencyError("element list does not match the table size")
        self._check_associative()

    @property
    def order(self) -> int:
        return int(self.product.shape[0])

    def _check_associative(self) -> None:
        p = self.product
        n = self.order
        if n <= ASSOC_EXHAUSTIVE_LIMIT:
            # left[a,b,c] = p[p[a,b],c], right[a,b,c] = p[a,p[b,c]]
            associative = np.array_equal(p[p, :], p[:, p])
        else:
            associative = sampled_associative(p, random.Random(0xA55))
        if not associative:
            raise ConsistencyError(f"{self.name or 'semigroup'}: product is not associative")


def sampled_associative(p: np.ndarray, rng: random.Random) -> bool:
    """(ab)c == a(bc) on ASSOC_SAMPLES triples drawn from rng, checked in one gather.

    Each index is one 64-bit draw reduced mod the order, uniform up to a
    bias below order / 2^64.
    """
    draws = np.frombuffer(rng.randbytes(24 * ASSOC_SAMPLES), dtype="<u8") % np.uint64(p.shape[0])
    a, b, c = draws.astype(np.intp).reshape(3, ASSOC_SAMPLES)
    return bool(np.array_equal(p[p[a, b], c], p[a, p[b, c]]))


def from_group(g: FiniteGroup) -> SemigroupTable:
    """The group's Cayley table, its elements named as in the group."""
    return SemigroupTable(np.array(g.mul, dtype=np.uint16), elements=list(g.element_names), name=g.name)


def idempotents(t: SemigroupTable) -> list[int]:
    d = np.diagonal(t.product)
    return np.flatnonzero(d == np.arange(t.order)).tolist()


def _filtered_tiles(n: int, keep):
    """Each tile of _TILE candidates c < n in order, with those keep(cands, tile) passes on every _TILE-index slice."""
    for start in range(0, n, _TILE):
        cands = tile = np.arange(start, min(start + _TILE, n))
        for a in range(0, n, _TILE):
            if cands.size:
                cands = cands[keep(cands, slice(a, a + _TILE))]
        yield tile, cands


def _filtered(n: int, keep) -> list[int]:
    """The c < n that keep(cands, tile) passes on every slice of _TILE indices, _TILE candidates at a time."""
    return [c for _, kept in _filtered_tiles(n, keep) for c in kept.tolist()]


def _fixed_columns(p: np.ndarray) -> list[int]:
    """All z with p[x, z] = z for every x."""
    return _filtered(p.shape[0], lambda z, rows: (p[rows, z] == z).all(axis=0))


def right_zeros(t: SemigroupTable) -> list[int]:
    """All z with x*z = z for every x (columns constant at z)."""
    return _fixed_columns(t.product)


def left_zeros(t: SemigroupTable) -> list[int]:
    """All z with z*x = z for every x (rows constant at z)."""
    return _fixed_columns(t.product.T)


def _product_of_all(t: SemigroupTable) -> int:
    """s_1 s_2 ... s_m, the product of every element in index order, folded from the left."""
    p = t.product
    x = 0
    for s in range(1, t.order):
        x = p.item(x, s)
    return x


def zero(t: SemigroupTable) -> int | None:
    """The two-sided zero, if one exists.

    A zero z absorbs every factor, so the product of all elements is z:
    the running product becomes z at the factor z (xz = z) and stays z
    (zs = z).  Only that element needs its row and column checked.  A
    zero is unique in any magma, since two zeros satisfy z1 = z1 z2 = z2.
    """
    z = _product_of_all(t)
    p = t.product
    return z if (p[z] == z).all() and (p[:, z] == z).all() else None


def is_commutative(t: SemigroupTable) -> tuple[bool, tuple[int, int] | None]:
    """Symmetry of the table, with the lexicographically least witness pair on failure.

    Row i is non-central exactly when some j has p[i, j] != p[j, i], so the
    witness row i is the least non-central row.  The centrality scan stops
    after the first tile of rows that holds one.  Every row before i is
    central, so the least such j over the whole row is > i.
    """
    p = t.product
    for rows, central in _filtered_tiles(t.order, _row_is_column(p)):
        if len(central) < len(rows):
            i = min(set(rows.tolist()) - set(central.tolist()))  # not np.setdiff1d: it imports numpy.ma, 2 MB
            j = i + 1 + int(np.argmax(p[i, i + 1 :] != p[i + 1 :, i]))
            return False, (i, j)
    return True, None


def _row_is_column(p: np.ndarray):
    """The keep of a centrality scan: rows c of p equal to columns c on the slice cols."""
    return lambda c, cols: (p[c, cols] == p[cols, c].T).all(axis=1)


def central_elements(t: SemigroupTable) -> list[int]:
    """All c with c*x = x*c for every x: row c equals column c, checked one tile at a time."""
    return _filtered(t.order, _row_is_column(t.product))


def sqrt_of_idempotents(t: SemigroupTable) -> list[int]:
    """All x whose square is idempotent, i.e. x^4 = x^2."""
    d = np.diagonal(t.product)
    return np.flatnonzero(d[d] == d).tolist()


def principal_ideal(t: SemigroupTable, a: int) -> frozenset[int]:
    """The least two-sided ideal containing a, by reachability closure."""
    p = t.product
    member = np.zeros(t.order, dtype=bool)
    member[a] = True
    frontier = np.array([a], dtype=np.int32)
    while frontier.size:
        reached = np.zeros(t.order, dtype=bool)
        reached[p[:, frontier]] = True
        reached[p[frontier, :]] = True
        frontier = np.flatnonzero(reached & ~member)
        member[frontier] = True
    return frozenset(int(i) for i in np.flatnonzero(member))


def minimal_ideal(t: SemigroupTable) -> frozenset[int]:
    """The unique minimal two-sided ideal (the kernel).

    A finite semigroup has exactly one minimal ideal K.  Fold the whole
    table into x = s_1 s_2 ... s_m, the product of every element in index
    order.  One factor lies in K and K absorbs products on both sides, so
    x is in K; J(x) is then an ideal inside K, and minimality gives
    K = J(x).  The certificate J(k) = K for every k in K, which makes K
    minimal, is read off the K x K block: mark each c in K with x in cK;
    if every k has an a in K with ak marked, x is in akK, inside J(k), so
    J(k) = J(x) = K.
    """
    x = _product_of_all(t)
    kernel = principal_ideal(t, x)
    members = np.array(sorted(kernel))
    block = t.product[np.ix_(members, members)]
    marked = np.zeros(t.order, dtype=bool)
    marked[members] = (block == x).any(axis=1)
    if not marked[block].any(axis=0).all():
        raise ConsistencyError("a kernel element generates a different ideal")
    return kernel


def subtable(t: SemigroupTable, indices) -> SemigroupTable:
    """The induced table on a product-closed subset of elements."""
    order = sorted(indices)
    prod = t.product[np.ix_(order, order)]
    pos = np.zeros(t.order, dtype=np.uint16)
    pos[order] = np.arange(len(order))
    sub = pos[prod]
    if not np.array_equal(np.asarray(order)[sub], prod):  # a product outside the subset maps to order[0]
        raise ConsistencyError("subset is not closed under products")
    return SemigroupTable(sub, elements=[t.elements[v] for v in order], name=f"{t.name}|sub")


def maximal_subgroups(t: SemigroupTable) -> dict[int, list[int]]:
    """Each maximal subgroup H_e, the units of eSe, by idempotent e: {e: members of H_e}.

    u is in H_e iff u^w = e and eu = u, where u^w is the one idempotent power
    of u.  If so, e = u^k commutes with u, so u is in eSe, and u^(k-1) (e when
    k = 1) is an inverse of u in eSe.  Conversely the powers of a unit u stay
    in the group H_e, whose only idempotent is e.  So one pass over every u
    finds all H_e, each idempotent e in its own.  u^(2^L) with 2^L >= |S| lies
    past the index of u, in the cyclic group of its eventual powers;
    multiplying it by itself reaches that group's identity, which is u^w,
    in fewer than |S| steps.  So a u still pending after |S| steps has no
    idempotent power, which only a table altered after validation allows:
    that raises ConsistencyError.

    Each H_e x H_e block must land in H_e.  Blocks get no associativity check
    of their own: above ASSOC_EXHAUSTIVE_LIMIT the table's check samples.
    """
    p = t.product
    power = ids = np.arange(t.order)
    for _ in range((t.order - 1).bit_length()):
        power = p[power, power]
    omega = power.astype(np.intp)  # not uint16: owner marks non-members -1
    pending = ids
    for _ in range(t.order + 1):
        if not (pending := pending[p[omega[pending], omega[pending]] != omega[pending]]).size:
            break
        omega[pending] = p[omega[pending], power[pending]]
    else:
        raise ConsistencyError(f"{t.name or 'semigroup'}: an element has no idempotent power")
    owner = np.where(p[omega, ids] == ids, omega, -1)
    groups = {e: np.flatnonzero(owner == e) for e in np.flatnonzero(owner == ids).tolist()}
    if any((owner[p[np.ix_(h, h)]] != e).any() for e, h in groups.items()):
        raise ConsistencyError(f"{t.name or 'semigroup'}: a maximal subgroup is not closed under products")
    return {e: h.tolist() for e, h in groups.items()}


def adjoin_zero(t: SemigroupTable) -> SemigroupTable:
    """Add one absorbing element at index n."""
    n = t.order
    prod = np.full((n + 1, n + 1), n, dtype=np.uint16)
    prod[:n, :n] = t.product
    return SemigroupTable(prod, elements=list(t.elements) + ["0*"], name=f"{t.name}+zero")


def adjoin_identity(t: SemigroupTable) -> SemigroupTable:
    """Add one external two-sided unit at index n."""
    n = t.order
    prod = np.zeros((n + 1, n + 1), dtype=np.uint16)
    prod[:n, :n] = t.product
    prod[n, :] = np.arange(n + 1)
    prod[:, n] = np.arange(n + 1)
    return SemigroupTable(prod, elements=list(t.elements) + ["1*"], name=f"{t.name}+unit")


def direct_product(t1: SemigroupTable, t2: SemigroupTable) -> SemigroupTable:
    n1, n2 = t1.order, t2.order
    if n1 * n2 > MAX_ORDER:  # p1 * n2 + p2 would wrap in uint16
        raise CapacityError(f"a direct product of order {n1 * n2} exceeds the cap of {MAX_ORDER}")
    # prod[a * n2 + b, c * n2 + d] = p1[a, c] * n2 + p2[b, d]
    prod = (t1.product[:, None, :, None] * n2 + t2.product[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    elements = [f"({a},{b})" for a in t1.elements for b in t2.elements]
    return SemigroupTable(prod, elements=elements, name=f"{t1.name}x{t2.name}")


def is_isomorphism(t1: SemigroupTable, t2: SemigroupTable, phi) -> bool:
    """True iff phi (phi[i] is the t2 image of t1's element i) is a product-preserving bijection."""
    phi = np.asarray(phi, dtype=np.int64)
    if not t1.order == t2.order == len(phi) or not np.array_equal(np.sort(phi), np.arange(len(phi))):
        return False
    return bool(np.array_equal(t2.product[np.ix_(phi, phi)], phi[t1.product]))
