"""Small finite groups stored as explicit multiplication tables.

Groups are capped at order 16 so every subset fits in the bits of one
machine word.  Element 0 is always the identity; for a cyclic group
element i is the i-th power of the chosen generator.  The constructors
cover the groups needed by the analysis catalog: cyclic groups, direct
products of cyclic groups, dihedral groups, the quaternion group Q8,
the alternating group A4 and the order-12 semidirect product C3:C4.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce
from itertools import permutations
from math import prod

import numpy as np

from .bitsets import iter_bits
from .errors import CapacityError, ConsistencyError, GroupParseError
from .semigroups import SemigroupTable, direct_product, from_group, subtable

MAX_ORDER = 16


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on elements {0..order-1} with identity 0."""

    name: str
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...] = field(repr=False)
    element_names: tuple[str, ...] = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.mul)

    @property
    def identity(self) -> int:
        return 0

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def product(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def elements(self) -> range:
        return range(self.order)

    def __str__(self) -> str:
        return self.name


def _check_order(order: int) -> None:
    if order > MAX_ORDER:
        raise CapacityError(f"group order {order} exceeds the cap of {MAX_ORDER}")


def _validate_table(name: str, mul) -> tuple[np.ndarray, tuple[int, ...]]:
    """Check the group axioms exhaustively; return the product array and the inverse table.

    SemigroupTable checks squareness, range and every associativity
    triple: a group has at most MAX_ORDER <= ASSOC_EXHAUSTIVE_LIMIT
    elements.  Element 0 must be a two-sided identity and every element
    needs a two-sided inverse, which associativity makes unique: if
    ab = ba = e = ac = ca then b = b(ac) = (ba)c = c.
    """
    n = len(mul)
    if any(len(row) != n for row in mul):
        raise ConsistencyError(f"{name}: multiplication table is not square")
    p = SemigroupTable(mul, name=name).product
    ids = np.arange(n)
    if not (np.array_equal(p[0], ids) and np.array_equal(p[:, 0], ids)):
        raise ConsistencyError(f"{name}: element 0 is not an identity")
    unit = (p == 0) & (p.T == 0)
    if not unit.any(axis=1).all():
        raise ConsistencyError(f"{name}: missing inverses")
    return p, tuple(unit.argmax(axis=1).tolist())


def _make_group(name: str, mul, element_names=None) -> FiniteGroup:
    p, inv = _validate_table(name, mul)
    if element_names is None:
        element_names = map(str, range(len(inv)))
    return FiniteGroup(name, tuple(map(tuple, p.tolist())), inv, tuple(element_names))


def _cyclic(n: int) -> FiniteGroup:
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return _make_group(f"C{n}", mul)


def _dihedral(order: int) -> FiniteGroup:
    # Elements 0..n-1 are rotations a^i, n..2n-1 are reflections b*a^i,
    # with b*a*b = a^-1.
    n = order // 2
    mul = [[0] * order for _ in range(order)]
    for i in range(n):
        for j in range(n):
            mul[i][j] = (i + j) % n
            mul[i][n + j] = n + (j - i) % n
            mul[n + i][j] = n + (i + j) % n
            mul[n + i][n + j] = (j - i) % n
    names = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, n)]
    names += ["b"] + [f"ba{i}" if i > 1 else "ba" for i in range(1, n)]
    return _make_group(f"D{order}", mul, names)


_Q8_AXES = "1ijk"
_Q8_MUL = {  # axis products carrying signs: i*j=k, j*k=i, k*i=j
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
    ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
    ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
    ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
}


def _quaternion() -> FiniteGroup:
    # Index 2u+s encodes (+ or -) axis u in the order 1, i, j, k.
    def idx(sign, axis):
        return 2 * _Q8_AXES.index(axis) + (0 if sign == 1 else 1)

    mul = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            sa, ua = (1 if a % 2 == 0 else -1), _Q8_AXES[a // 2]
            sb, ub = (1 if b % 2 == 0 else -1), _Q8_AXES[b // 2]
            sp, up = _Q8_MUL[(ua, ub)]
            mul[a][b] = idx(sa * sb * sp, up)
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return _make_group("Q8", mul, names)


def _alternating4() -> FiniteGroup:
    perms = sorted(p for p in permutations(range(4)) if _parity(p) == 0)
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[tuple(p[q[x]] for x in range(4))] for q in perms] for p in perms]
    names = ["".join(map(str, p)) for p in perms]
    return _make_group("A4", mul, names)


def _parity(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return inversions % 2


def _semidirect_c3_c4() -> FiniteGroup:
    # <a,b | a^4 = b^3 = 1, a b a^-1 = b^-1>; element a^i b^j has index 3i+j,
    # and b^j a^k = a^k b^(j * (-1)^k).
    def idx(i, j):
        return 3 * (i % 4) + (j % 3)

    mul = [[0] * 12 for _ in range(12)]
    for i in range(4):
        for j in range(3):
            for k in range(4):
                for l in range(3):
                    jj = j if k % 2 == 0 else -j
                    mul[idx(i, j)][idx(k, l)] = idx(i + k, jj + l)
    names = [f"a{i}b{j}".replace("a0", "").replace("b0", "") or "e" for i in range(4) for j in range(3)]
    return _make_group("C3:C4", mul, names)


def _direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    # Pair encoding: (i, j) -> i*|H| + j, so the identity stays at 0.
    t = direct_product(from_group(g), from_group(h))
    return _make_group(t.name, t.product, t.elements)


_NAME_RE = re.compile(r"^C(\d+)$")
_DIHEDRAL_RE = re.compile(r"^D(\d+)$")
_NAMED = {"Q8": _quaternion, "A4": _alternating4, "C3:C4": _semidirect_c3_c4}


def build_group(name: str) -> FiniteGroup:
    """Build a validated group from its catalog name.

    The grammar: ``C<n>``, products ``C<a>xC<b>[xC<c>...]``, ``D<2n>``
    (the dihedral group of order 2n), ``Q8``, ``A4`` and ``C3:C4``.
    Total order must stay within 16.  A name is parsed whole before its
    order is checked, so each fault has one message.
    """
    name = name.strip()
    if name in _NAMED:
        return _NAMED[name]()
    m = _DIHEDRAL_RE.match(name)
    if m:
        order = int(m.group(1))
        if order % 2 or order < 6:
            raise GroupParseError(f"dihedral groups need an even order >= 6, got {name!r}")
        _check_order(order)
        return _dihedral(order)
    parts = [_NAME_RE.match(part) for part in name.split("x")]
    if not all(parts):
        raise GroupParseError(f"unknown group name {name!r}")
    factors = [int(m.group(1)) for m in parts]
    if min(factors) < 1:
        raise GroupParseError(f"bad cyclic order in {name!r}")
    _check_order(prod(factors))
    grp = reduce(_direct_product, map(_cyclic, factors))
    # a one-factor name keeps the cyclic group's own name, so C01 is C1
    return grp if len(factors) == 1 else replace(grp, name=name)


def element_order(g: FiniteGroup, x: int) -> int:
    """Smallest k >= 1 with x^k equal to the identity."""
    k = 1
    y = x
    while y != 0:
        y = g.mul[y][x]
        k += 1
    return k


def is_odd_group(g: FiniteGroup) -> bool:
    """True iff every element has odd order."""
    return all(element_order(g, x) % 2 == 1 for x in g.elements())


def translate_set(g: FiniteGroup, x: int, mask: int) -> int:
    """The left translate xA = {x*a : a in A} as a mask."""
    row = g.mul[x]
    out = 0
    for a in iter_bits(mask):
        out |= 1 << row[a]
    return out


@lru_cache(maxsize=32)
def shift_table(g: FiniteGroup) -> np.ndarray:
    """shifts[x, A] = xA for every element x and subset mask A, as uint16.

    Built by doubling: a mask with top bit b is the mask below it plus
    the point b, whose translate is the point x*b.  The array is cached
    per group and read-only.
    """
    n = g.order
    points = np.uint16(1) << np.array(g.mul, dtype=np.uint16)  # points[x, b] = {x*b}
    shifts = np.zeros((n, 1 << n), dtype=np.uint16)
    for b in range(n):
        half = 1 << b
        shifts[:, half : 2 * half] = shifts[:, :half] | points[:, b, None]
    shifts.flags.writeable = False
    return shifts


def difference_set(g: FiniteGroup, a_mask: int, b_mask: int) -> int:
    """AB^-1 = {a*b^-1 : a in A, b in B} as a mask."""
    mul = g.mul
    inv = g.inv
    out = 0
    for b in iter_bits(b_mask):
        bi = inv[b]
        for a in iter_bits(a_mask):
            out |= 1 << mul[a][bi]
    return out


def enumerate_subgroups(g: FiniteGroup) -> list[int]:
    """All subgroups of g as subset masks, sorted by (size, mask value).

    A finite subset closed under products is a subgroup, and H is closed
    iff xH = H for every x in H, as a translate has |H| elements; every
    mask holding the identity is tested at once through the shift table.
    """
    shifts = shift_table(g)
    masks = np.arange(1, 1 << g.order, 2)
    closed = np.ones(len(masks), dtype=bool)
    for x in g.elements():
        closed &= (masks >> x & 1 == 0) | (shifts[x, masks] == masks)
    return sorted(masks[closed].tolist(), key=lambda m: (m.bit_count(), m))


def subgroup_as_group(g: FiniteGroup, h_mask: int) -> FiniteGroup:
    """Reindex a subgroup mask as a standalone group (identity first)."""
    if not h_mask & 1:
        raise ConsistencyError("subgroup mask does not contain the identity")
    t = subtable(from_group(g), list(iter_bits(h_mask)))
    return _make_group(f"{g.name}|{h_mask:#x}", t.product, t.elements)
