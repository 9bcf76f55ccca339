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
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import permutations

import numpy as np

from .bitsets import iter_bits
from .errors import CapacityError, ConsistencyError, GroupParseError

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

    def is_abelian(self) -> bool:
        mul = self.mul
        n = self.order
        return all(mul[a][b] == mul[b][a] for a in range(n) for b in range(n))

    def __str__(self) -> str:
        return self.name


def _validate_table(name: str, mul: list[list[int]]) -> tuple[int, ...]:
    """Check the group axioms exhaustively and return the inverse table."""
    n = len(mul)
    if any(len(row) != n for row in mul):
        raise ConsistencyError(f"{name}: multiplication table is not square")
    rng = range(n)
    if any(mul[0][i] != i or mul[i][0] != i for i in rng):
        raise ConsistencyError(f"{name}: element 0 is not an identity")
    for a in rng:
        for b in rng:
            ab = mul[a][b]
            if not 0 <= ab < n:
                raise ConsistencyError(f"{name}: product out of range")
            for c in rng:
                if mul[ab][c] != mul[a][mul[b][c]]:
                    raise ConsistencyError(f"{name}: not associative at ({a},{b},{c})")
    inv = [-1] * n
    for a in rng:
        for b in rng:
            if mul[a][b] == 0 and mul[b][a] == 0:
                if inv[a] not in (-1, b):
                    raise ConsistencyError(f"{name}: inverse of {a} is not unique")
                inv[a] = b
    if any(i < 0 for i in inv):
        raise ConsistencyError(f"{name}: missing inverses")
    return tuple(inv)


def _make_group(name: str, mul: list[list[int]], element_names=None) -> FiniteGroup:
    if len(mul) > MAX_ORDER:
        raise CapacityError(f"group order {len(mul)} exceeds the cap of {MAX_ORDER}")
    inv = _validate_table(name, mul)
    if element_names is None:
        element_names = tuple(str(i) for i in range(len(mul)))
    return FiniteGroup(name, tuple(tuple(row) for row in mul), inv, tuple(element_names))


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


def _direct_product(g: FiniteGroup, h: FiniteGroup, name: str) -> FiniteGroup:
    # Pair encoding: (i, j) -> i*|H| + j, so the identity stays at 0.
    nh = h.order
    order = g.order * nh
    if order > MAX_ORDER:
        raise CapacityError(f"direct product order {order} exceeds the cap of {MAX_ORDER}")
    mul = [[0] * order for _ in range(order)]
    for i in range(g.order):
        for j in range(nh):
            for k in range(g.order):
                for l in range(nh):
                    mul[i * nh + j][k * nh + l] = g.mul[i][k] * nh + h.mul[j][l]
    names = [f"({g.element_names[i]},{h.element_names[j]})" for i in range(g.order) for j in range(nh)]
    return _make_group(name, mul, names)


_NAME_RE = re.compile(r"^C(\d+)$")
_DIHEDRAL_RE = re.compile(r"^D(\d+)$")


def build_group(name: str) -> FiniteGroup:
    """Build a validated group from its catalog name.

    The grammar: ``C<n>``, products ``C<a>xC<b>[xC<c>...]``, ``D<2n>``
    (the dihedral group of order 2n), ``Q8``, ``A4`` and ``C3:C4``.
    Total order must stay within 16.
    """
    name = name.strip()
    if name == "Q8":
        return _quaternion()
    if name == "A4":
        return _alternating4()
    if name == "C3:C4":
        return _semidirect_c3_c4()
    m = _DIHEDRAL_RE.match(name)
    if m:
        order = int(m.group(1))
        if order % 2 or order < 6:
            raise GroupParseError(f"dihedral groups need an even order >= 6, got {name!r}")
        if order > MAX_ORDER:
            raise CapacityError(f"group order {order} exceeds the cap of {MAX_ORDER}")
        return _dihedral(order)
    if "x" in name:
        factors = []
        for part in name.split("x"):
            m = _NAME_RE.match(part)
            if not m:
                raise GroupParseError(f"unknown group name {name!r}")
            factors.append(int(m.group(1)))
        order = 1
        for f in factors:
            if f < 1:
                raise GroupParseError(f"bad cyclic order in {name!r}")
            order *= f
        if order > MAX_ORDER:
            raise CapacityError(f"group order {order} exceeds the cap of {MAX_ORDER}")
        grp = reduce(lambda acc, f: _direct_product(acc, _cyclic(f), ""), factors[1:], _cyclic(factors[0]))
        return FiniteGroup(name, grp.mul, grp.inv, grp.element_names)
    m = _NAME_RE.match(name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise GroupParseError(f"bad cyclic order in {name!r}")
        if n > MAX_ORDER:
            raise CapacityError(f"group order {n} exceeds the cap of {MAX_ORDER}")
        return _cyclic(n)
    raise GroupParseError(f"unknown group name {name!r}")


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

    Subgroups are produced by closing generator sets one element at a
    time, which visits the whole subgroup lattice for these orders.
    """
    trivial = 1
    found = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for h_mask in frontier:
            for x in g.elements():
                if h_mask >> x & 1:
                    continue
                closed = _close_subgroup(g, h_mask | (1 << x))
                if closed not in found:
                    found.add(closed)
                    nxt.append(closed)
        frontier = nxt
    return sorted(found, key=lambda m: (m.bit_count(), m))


def _close_subgroup(g: FiniteGroup, mask: int) -> int:
    mul = g.mul
    while True:
        new = mask
        elems = list(iter_bits(mask))
        for a in elems:
            for b in elems:
                new |= 1 << mul[a][b]
        if new == mask:
            return mask
        mask = new


def subgroup_as_group(g: FiniteGroup, h_mask: int) -> FiniteGroup:
    """Reindex a subgroup mask as a standalone group (identity first)."""
    elems = list(iter_bits(h_mask))
    if elems[0] != 0:
        raise ConsistencyError("subgroup mask does not contain the identity")
    pos = {e: i for i, e in enumerate(elems)}
    mul = [[pos[g.mul[a][b]] for b in elems] for a in elems]
    names = tuple(g.element_names[e] for e in elems)
    return _make_group(f"{g.name}|{h_mask:#x}", mul, names)
