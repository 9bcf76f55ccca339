"""Monotone set families on a small ground set, and maximal linked systems.

A monotone family of non-empty subsets is stored by its antichain of
inclusion-minimal members, sorted ascending by mask value.  A maximal
linked system is a family that equals its own transversal (the family
of all sets meeting every member); equivalently a monotone family that
contains exactly one of A and its complement for every subset A.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bitsets import (
    iter_bits,
    minimal_members,
    subset_closures,
    subsets_of_size,
    superset_closures,
)
from .errors import CapacityError, ConsistencyError
from .groups import FiniteGroup, shift_table

MAX_ENUM_GROUND = 7


@dataclass(frozen=True)
class SetFamily:
    """An upward-closed family, represented by its minimal sets."""

    ground_size: int
    minimal_sets: tuple[int, ...]

    def __post_init__(self):
        n = self.ground_size
        sets = self.minimal_sets
        if not sets:
            raise ConsistencyError("a set family needs at least one member")
        full = (1 << n) - 1
        for s in sets:
            if s == 0:
                raise ConsistencyError("the empty set cannot be a member")
            if s & ~full:
                raise ConsistencyError("member exceeds the ground set")
        for i in range(1, len(sets)):
            if sets[i] <= sets[i - 1]:
                raise ConsistencyError("minimal sets must be strictly ascending")
        for i, a in enumerate(sets):
            for b in sets[i + 1 :]:
                if a & b == a or a & b == b:
                    raise ConsistencyError("minimal sets must form an antichain")

    def contains(self, mask: int) -> bool:
        """True iff mask is a member, i.e. contains some minimal set."""
        return any(s & mask == s for s in self.minimal_sets)

    @cached_property
    def bitmap(self) -> int:
        """Membership bitmap over all 2^n subset values."""
        sup = superset_closures(self.ground_size)
        bm = 0
        for s in self.minimal_sets:
            bm |= sup[s]
        return bm

    def members(self) -> list[int]:
        return list(iter_bits(self.bitmap))

    def transversal(self) -> "SetFamily":
        """The family of minimal sets meeting every member of self."""
        n = self.ground_size
        sets = self.minimal_sets
        hitting = []
        for cand in range(1, 1 << n):
            if all(cand & s for s in sets):
                hitting.append(cand)
        minimal = []
        for cand in hitting:
            # Hitting is monotone, so minimality = every one-bit removal fails.
            if all(any((cand ^ (1 << b)) & s == 0 for s in sets) for b in iter_bits(cand)):
                minimal.append(cand)
        return SetFamily(n, tuple(minimal))

    def is_linked(self) -> bool:
        """True iff every two members intersect."""
        sets = self.minimal_sets
        return all(a & b for i, a in enumerate(sets) for b in sets[i:])

    def is_maximal_linked(self) -> bool:
        """True iff self equals its transversal.

        The transversal of a monotone family F is {B : complement of B not
        in F}, so F is maximal linked iff it holds exactly one set of every
        complementary pair: the bitmap XOR its mirror image (bit s moved to
        bit full ^ s) sets all 2^n bits.
        """
        size = 1 << self.ground_size
        mirror = int(format(self.bitmap, f"0{size}b")[::-1], 2)
        return self.bitmap ^ mirror == (1 << size) - 1

    def shift(self, g: FiniteGroup, x: int) -> "SetFamily":
        """The image family {xA : A in self} under left translation."""
        if g.order != self.ground_size:
            raise ConsistencyError("ground size does not match the group order")
        return SetFamily(self.ground_size, tuple(sorted(shift_table(g)[x, list(self.minimal_sets)].tolist())))

    def __str__(self) -> str:
        parts = ("{" + ",".join(str(b) for b in iter_bits(s)) + "}" for s in self.minimal_sets)
        return "<" + " ".join(parts) + ">"


@dataclass(frozen=True)
class MaximalLinkedSystem:
    """A set family equal to its own transversal.

    Constructed either by the enumerator (which guarantees the defining
    property) or through :meth:`from_family`, which verifies it.
    """

    family: SetFamily

    @classmethod
    def from_family(cls, family: SetFamily) -> "MaximalLinkedSystem":
        if not family.is_maximal_linked():
            raise ConsistencyError("family is not equal to its transversal")
        return cls(family)

    @property
    def ground_size(self) -> int:
        return self.family.ground_size

    @property
    def minimal_sets(self) -> tuple[int, ...]:
        return self.family.minimal_sets

    def contains(self, mask: int) -> bool:
        return self.family.contains(mask)

    def serialize(self) -> str:
        return ",".join(str(s) for s in self.minimal_sets)

    def __str__(self) -> str:
        return str(self.family)


def generate_family(ground_size: int, sets) -> SetFamily:
    """The monotone family generated by the given masks, canonicalized."""
    sets = list(sets)
    if not sets:
        raise ConsistencyError("cannot generate a family from no sets")
    if any(s == 0 for s in sets):
        raise ConsistencyError("generators must be non-empty")
    keep = []
    for s in sorted(set(sets)):
        if not any(t & s == t for t in keep):
            keep.append(s)
    return SetFamily(ground_size, tuple(keep))


def family_from_bitmap(ground_size: int, bitmap: int) -> SetFamily:
    return SetFamily(ground_size, tuple(minimal_members(bitmap, ground_size)))


def principal_ultrafilter(g: FiniteGroup, x: int) -> MaximalLinkedSystem:
    """The system of all sets containing the point x."""
    return MaximalLinkedSystem(SetFamily(g.order, (1 << x,)))


def majority_family(g: FiniteGroup) -> SetFamily:
    """All subsets of size strictly more than half the group order."""
    k = g.order // 2 + 1
    return SetFamily(g.order, tuple(subsets_of_size(g.order, k)))


def shift_mls(g: FiniteGroup, x: int, system: MaximalLinkedSystem) -> MaximalLinkedSystem:
    """Left translation of a maximal linked system; again maximal linked."""
    return MaximalLinkedSystem(system.family.shift(g, x))


def is_invariant_mls(g: FiniteGroup, system: MaximalLinkedSystem) -> bool:
    return all(system.family.shift(g, x) == system.family for x in g.elements())


def enumerate_mls(ground_size: int, *, allow_large: bool = False) -> list[MaximalLinkedSystem]:
    """All maximal linked systems on {0..n-1} in canonical order.

    Backtracks over complementary subset pairs: a maximal linked system
    contains exactly one of A and its complement, and membership must be
    upward closed.  Deciding a pair propagates both closures, so dead
    branches are cut early.  Results are sorted lexicographically by
    their minimal-set tuples, independent of search order.
    """
    n = ground_size
    if not 1 <= n <= MAX_ENUM_GROUND:
        raise CapacityError(f"enumeration supports ground sizes 1..{MAX_ENUM_GROUND}")
    if n == 7 and not allow_large:
        raise CapacityError("ground size 7 is gated behind allow_large")
    size = 1 << n
    full = size - 1
    sup = superset_closures(n)
    sub = subset_closures(n)
    reps = sorted(
        (s for s in range(1, size) if s < (full ^ s)),
        key=lambda s: (s.bit_count(), s),
    )
    bitmaps: list[int] = []

    def walk(i: int, inside: int, outside: int) -> None:
        while i < len(reps) and (inside | outside) >> reps[i] & 1:
            i += 1
        if i == len(reps):
            bitmaps.append(inside)
            return
        s = reps[i]
        c = full ^ s
        in_s, out_s = inside | sup[s], outside | sub[c]
        if not in_s & out_s:
            walk(i + 1, in_s, out_s)
        in_c, out_c = inside | sup[c], outside | sub[s]
        if not in_c & out_c:
            walk(i + 1, in_c, out_c)

    walk(0, sup[full], 1)
    families = [family_from_bitmap(n, bm) for bm in bitmaps]
    families.sort(key=lambda f: f.minimal_sets)
    return [MaximalLinkedSystem(f) for f in families]


def extend_to_mls(family: SetFamily) -> MaximalLinkedSystem:
    """Greedy completion of a linked family to a maximal linked system.

    Scans subsets in ascending mask order and adds every set that meets
    all current members.  The scan order makes the result deterministic;
    supersets of added sets are added later, so the result is monotone,
    and being unextendable it equals its transversal.
    """
    if not family.is_linked():
        raise ConsistencyError("can only extend a linked family")
    n = family.ground_size
    members = family.members()
    bitmap = family.bitmap
    for cand in range(1, 1 << n):
        if bitmap >> cand & 1:
            continue
        if all(cand & m for m in members):
            bitmap |= 1 << cand
            members.append(cand)
    return MaximalLinkedSystem(family_from_bitmap(n, bitmap))
