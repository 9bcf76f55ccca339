"""Finite semigroups as index tables, with structure analyses.

A SemigroupTable is an element list plus an n x n product table of
element indices.  Associativity is verified exhaustively up to order
100 and on sampled triples above that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError
from .groups import FiniteGroup

ASSOC_EXHAUSTIVE_LIMIT = 100
ASSOC_SAMPLES = 10_000


@dataclass(eq=False)
class SemigroupTable:
    product: np.ndarray
    elements: list = field(default_factory=list)
    labels: list[str] | None = None
    name: str = ""

    def __post_init__(self):
        p = np.asarray(self.product, dtype=np.int32)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ConsistencyError("product table must be square")
        n = p.shape[0]
        if n and (p.min() < 0 or p.max() >= n):
            raise ConsistencyError("product table index out of range")
        self.product = p
        if not self.elements:
            self.elements = list(range(n))
        if len(self.elements) != n:
            raise ConsistencyError("element list does not match the table size")
        if self.labels is not None and len(self.labels) != n:
            raise ConsistencyError("label list does not match the table size")
        self._check_associative()

    @property
    def order(self) -> int:
        return int(self.product.shape[0])

    def mul(self, a: int, b: int) -> int:
        return int(self.product[a, b])

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return str(self.elements[i])

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
    return SemigroupTable(
        np.array(g.mul, dtype=np.int32),
        elements=list(g.elements()),
        labels=list(g.element_names),
        name=g.name,
    )


def idempotents(t: SemigroupTable) -> list[int]:
    return [i for i in range(t.order) if t.product[i, i] == i]


def right_zeros(t: SemigroupTable) -> list[int]:
    """All z with x*z = z for every x (columns constant at z)."""
    return np.flatnonzero((t.product == np.arange(t.order)).all(axis=0)).tolist()


def left_zeros(t: SemigroupTable) -> list[int]:
    """All z with z*x = z for every x (rows constant at z)."""
    return np.flatnonzero((t.product == np.arange(t.order)[:, None]).all(axis=1)).tolist()


def _product_of_all(t: SemigroupTable) -> int:
    """s_1 s_2 ... s_m, the product of every element in index order, folded from the left."""
    p = t.product
    x = 0
    for s in range(1, t.order):
        x = int(p[x, s])
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
    """Symmetry of the table, with the least witness pair on failure."""
    p = t.product
    diff = p != p.T
    if not diff.any():
        return True, None
    # argmax finds the first asymmetric cell in row-major order, which is
    # the lexicographically least pair
    i, j = divmod(int(np.argmax(diff)), t.order)
    return False, (i, j)


def central_elements(t: SemigroupTable) -> list[int]:
    """All c with c*x = x*c for every x (row c equals column c)."""
    p = t.product
    return np.flatnonzero((p == p.T).all(axis=1)).tolist()


def sqrt_of_idempotents(t: SemigroupTable) -> list[int]:
    """All x whose square is idempotent, i.e. x^4 = x^2."""
    p = t.product
    out = []
    for x in range(t.order):
        sq = p[x, x]
        if p[sq, sq] == sq:
            out.append(x)
    return out


def principal_ideal(t: SemigroupTable, a: int) -> frozenset[int]:
    """The least two-sided ideal containing a, by reachability closure."""
    p = t.product
    member = np.zeros(t.order, dtype=bool)
    member[a] = True
    frontier = np.array([a], dtype=np.int32)
    while frontier.size:
        reached = np.concatenate([p[:, frontier].ravel(), p[frontier, :].ravel()])
        fresh = np.unique(reached[~member[reached]])
        member[fresh] = True
        frontier = fresh
    return frozenset(int(i) for i in np.flatnonzero(member))


def minimal_ideal(t: SemigroupTable) -> frozenset[int]:
    """The unique minimal two-sided ideal (the kernel).

    A finite semigroup has exactly one minimal ideal K.  Fold the whole
    table into x = s_1 s_2 ... s_m, the product of every element in index
    order.  One factor lies in K and K absorbs products on both sides, so
    x is in K; J(x) is then an ideal inside K, and minimality gives
    K = J(x).  As a certificate every k in K must regenerate J(k) = K:
    a member generating a smaller ideal would mean the fold missed the
    kernel.
    """
    kernel = principal_ideal(t, _product_of_all(t))
    if any(principal_ideal(t, k) != kernel for k in kernel):
        raise ConsistencyError("a kernel element generates a different ideal")
    return kernel


def subtable(t: SemigroupTable, indices) -> SemigroupTable:
    """The induced table on a product-closed subset of elements."""
    order = sorted(indices)
    pos = np.full(t.order, -1, dtype=np.int32)
    pos[order] = np.arange(len(order), dtype=np.int32)
    prod = pos[t.product[np.ix_(order, order)]]
    if (prod < 0).any():
        raise ConsistencyError("subset is not closed under products")
    return SemigroupTable(
        prod,
        elements=[t.elements[v] for v in order],
        labels=[t.label(v) for v in order],
        name=f"{t.name}|sub",
    )


def maximal_subgroup_at(t: SemigroupTable, e: int) -> SemigroupTable:
    """The maximal subgroup H_e: the invertible elements of the local monoid eSe.

    u is in H_e iff eu = u = ue and u^w = e, where u^w is the one
    idempotent power of u.  If so, u is in eSe and u^k = e for some k, so
    u^(k-1) (e when k = 1) is an inverse of u in eSe.  Conversely the powers
    of a unit u stay in the group H_e, whose only idempotent is e.

    u^(2^L) with 2^L >= |S| lies past the index of u, in the cyclic group
    of its eventual powers; multiplying it by itself reaches that group's
    identity, which is u^w.
    """
    p = t.product
    if p[e, e] != e:
        raise ConsistencyError(f"element {e} is not idempotent")
    ids = np.arange(t.order)
    power = ids
    for _ in range((t.order - 1).bit_length()):
        power = p[power, power]
    omega = power.copy()
    pending = np.flatnonzero(p[omega, omega] != omega)
    while pending.size:
        omega[pending] = p[omega[pending], power[pending]]
        pending = pending[p[omega[pending], omega[pending]] != omega[pending]]
    units = (p[e] == ids) & (p[:, e] == ids) & (omega == e)
    return subtable(t, np.flatnonzero(units).tolist())


def adjoin_zero(t: SemigroupTable) -> SemigroupTable:
    """Add one absorbing element at index n."""
    n = t.order
    prod = np.full((n + 1, n + 1), n, dtype=np.int32)
    prod[:n, :n] = t.product
    return SemigroupTable(
        prod,
        elements=list(t.elements) + ["0*"],
        labels=(list(t.labels) + ["0*"]) if t.labels is not None else None,
        name=f"{t.name}+zero",
    )


def adjoin_identity(t: SemigroupTable) -> SemigroupTable:
    """Add one external two-sided unit at index n."""
    n = t.order
    prod = np.zeros((n + 1, n + 1), dtype=np.int32)
    prod[:n, :n] = t.product
    prod[n, :] = np.arange(n + 1)
    prod[:, n] = np.arange(n + 1)
    return SemigroupTable(
        prod,
        elements=list(t.elements) + ["1*"],
        labels=(list(t.labels) + ["1*"]) if t.labels is not None else None,
        name=f"{t.name}+unit",
    )


def direct_product(t1: SemigroupTable, t2: SemigroupTable) -> SemigroupTable:
    n1, n2 = t1.order, t2.order
    # prod[a * n2 + b, c * n2 + d] = p1[a, c] * n2 + p2[b, d]
    prod = (t1.product[:, None, :, None] * n2 + t2.product[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    labels = [f"({t1.label(a)},{t2.label(b)})" for a in range(n1) for b in range(n2)]
    return SemigroupTable(prod, elements=labels, labels=labels, name=f"{t1.name}x{t2.name}")


def is_isomorphism(t1: SemigroupTable, t2: SemigroupTable, phi) -> bool:
    """True iff phi (phi[i] is the t2 image of t1's element i) is a product-preserving bijection."""
    phi = np.asarray(phi, dtype=np.int64)
    if not t1.order == t2.order == len(phi) or not np.array_equal(np.sort(phi), np.arange(len(phi))):
        return False
    return bool(np.array_equal(t2.product[np.ix_(phi, phi)], phi[t1.product]))
