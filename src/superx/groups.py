"""Small finite groups stored as explicit multiplication tables.

Groups are capped at order 16 so every subset fits in the bits of one
machine word.  Element 0 is always the identity; for a cyclic group
element i is the i-th power of the chosen generator.  Every catalog
group but a direct product is built one way, by ``_from_rule``: an
ordered element list and a product rule on it fill the table cell by
cell.  The rules give cyclic groups, dihedral groups, the quaternion
group Q8 (the Hamilton product), the alternating group A4 and the
order-12 semidirect product C3:C4; direct products of cyclic groups
come from ``semigroups.direct_product``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce
from itertools import combinations, permutations
from math import prod

import numpy as np

from .errors import CapacityError, ConsistencyError, GroupParseError
from .semigroups import SemigroupTable, direct_product, from_group

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
    def full_mask(self) -> int:
        return (1 << self.order) - 1

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


def _make_group(name: str, mul, element_names) -> FiniteGroup:
    p, inv = _validate_table(name, mul)
    return FiniteGroup(name, tuple(map(tuple, p.tolist())), inv, tuple(element_names))


def _from_rule(name: str, elements: list, rule, element_names) -> FiniteGroup:
    """The group on ``elements``, identity first, whose table holds index[rule(a, b)] in cell (a, b)."""
    index = {x: i for i, x in enumerate(elements)}
    return _make_group(name, [[index[rule(a, b)] for b in elements] for a in elements], element_names)


def _cyclic(n: int) -> FiniteGroup:
    return _from_rule(f"C{n}", list(range(n)), lambda a, b: (a + b) % n, list(map(str, range(n))))


def _dihedral(order: int) -> FiniteGroup:
    # (s, i) is b^s a^i, index s*n + i: rotations first, then reflections,
    # with b a b = a^-1, so (s, i)(t, j) = (s xor t, j + (-1)^t i).
    n = order // 2
    elements = [(s, i) for s in (0, 1) for i in range(n)]
    names = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, n)]
    names += ["b"] + [f"ba{i}" if i > 1 else "ba" for i in range(1, n)]
    return _from_rule(f"D{order}", elements, lambda a, b: (a[0] ^ b[0], (b[1] + (-1) ** b[0] * a[1]) % n), names)


def _hamilton(p, q):
    """The Hamilton product of quaternions w + xi + yj + zk, given as (w, x, y, z)."""
    (a, b, c, d), (e, f, g, h) = p, q
    return a*e - b*f - c*g - d*h, a*f + b*e + c*h - d*g, a*g - b*h + c*e + d*f, a*h + b*g - c*f + d*e


def _quaternion() -> FiniteGroup:
    # The unit quaternions +-1, +-i, +-j, +-k; index 2u+s is sign (-1)^s on axis u in the order 1, i, j, k.
    elements = [tuple((-1) ** s if v == u else 0 for v in range(4)) for u in range(4) for s in (0, 1)]
    names = ["-" * s + axis for axis in "1ijk" for s in (0, 1)]
    return _from_rule("Q8", elements, _hamilton, names)


def _alternating4() -> FiniteGroup:
    # the even permutations of 0..3, ascending; q is applied first in p * q
    perms = [p for p in permutations(range(4)) if sum(p[i] > p[j] for i, j in combinations(range(4), 2)) % 2 == 0]
    names = ["".join(map(str, p)) for p in perms]
    return _from_rule("A4", perms, lambda p, q: tuple(p[q[x]] for x in range(4)), names)


def _semidirect_c3_c4() -> FiniteGroup:
    # <a,b | a^4 = b^3 = 1, a b a^-1 = b^-1>; (i, j) is a^i b^j, index 3i+j,
    # and b^j a^k = a^k b^(j * (-1)^k), so (i, j)(k, l) = (i + k, (-1)^k j + l).
    elements = [(i, j) for i in range(4) for j in range(3)]
    names = [f"a{i}b{j}".replace("a0", "").replace("b0", "") or "e" for i, j in elements]
    return _from_rule("C3:C4", elements, lambda a, b: ((a[0] + b[0]) % 4, ((-1) ** b[0] * a[1] + b[1]) % 3), names)


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
