"""Monotone set families on a small ground set, and maximal linked systems.

There is one family type, :class:`SetFamily`: a monotone family of
non-empty subsets stored by its antichain of inclusion-minimal members,
sorted ascending by mask value.  A maximal linked system is a
``SetFamily`` for which :meth:`SetFamily.is_maximal_linked` holds: it
equals its own transversal (the family of all sets meeting every
member), equivalently it contains exactly one of A and its complement
for every subset A.  The enumerator and the constructors below return
such families without re-checking; callers that take a family from
elsewhere test the predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from .bitsets import (
    iter_bits,
    minimal_members,
    subset_closures,
    subsets_of_size,
    superset_closures,
)
from .errors import CapacityError, ConsistencyError
from .groups import FiniteGroup, shift_table

MAX_TABLE_GROUND = 6


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
        # Ascending order leaves a subset a of b before b, so the antichain
        # fails iff some set has a strict superset among the sets.
        sup = superset_closures(n)
        packed = 0
        for s in sets:
            packed |= 1 << s
        if any((sup[s] ^ (1 << s)) & packed for s in sets):
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

    def _hitting_bitmap(self) -> int:
        """Bitmap of the sets meeting every member: {B : complement of B not in self}.

        B misses a member iff some member lies in the complement of B, iff
        (self being monotone) that complement is a member.  Bit s of the
        bitmap's mirror image (bit s moved to bit full ^ s) says whether the
        complement of s is a member, so this is NOT the mirror image.
        """
        size = 1 << self.ground_size
        mirror = int(format(self.bitmap, f"0{size}b")[::-1], 2)
        return mirror ^ ((1 << size) - 1)

    def transversal(self) -> "SetFamily":
        """The family of minimal sets meeting every member of self."""
        return family_from_bitmap(self.ground_size, self._hitting_bitmap())

    def is_linked(self) -> bool:
        """True iff every two members intersect."""
        sets = self.minimal_sets
        return all(a & b for i, a in enumerate(sets) for b in sets[i:])

    def is_maximal_linked(self) -> bool:
        """True iff self equals its transversal: it holds exactly one set of every complementary pair."""
        return self.bitmap == self._hitting_bitmap()

    def shift(self, g: FiniteGroup, x: int) -> "SetFamily":
        """The image family {xA : A in self} under left translation."""
        if g.order != self.ground_size:
            raise ConsistencyError("ground size does not match the group order")
        return SetFamily(self.ground_size, tuple(sorted(shift_table(g)[x, list(self.minimal_sets)].tolist())))

    def serialize(self) -> str:
        """The minimal sets as comma-separated mask values.

        The cache digest hashes these strings, so any change to the format
        turns every stored cache entry into a miss.
        """
        return ",".join(str(s) for s in self.minimal_sets)

    def __str__(self) -> str:
        parts = ("{" + ",".join(str(b) for b in iter_bits(s)) + "}" for s in self.minimal_sets)
        return "<" + " ".join(parts) + ">"


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


def principal_ultrafilter(g: FiniteGroup, x: int) -> SetFamily:
    """The system of all sets containing the point x."""
    return SetFamily(g.order, (1 << x,))


def majority_family(g: FiniteGroup) -> SetFamily:
    """All subsets of size strictly more than half the group order."""
    k = g.order // 2 + 1
    return SetFamily(g.order, tuple(subsets_of_size(g.order, k)))


def is_invariant_mls(g: FiniteGroup, system: SetFamily) -> bool:
    return all(system.shift(g, x) == system for x in g.elements())


def enumerate_mls(ground_size: int) -> list[SetFamily]:
    """All maximal linked systems on {0..n-1} in canonical order.

    Results are sorted lexicographically by their minimal-set tuples,
    independent of search order.  The systems of each ground size up to
    MAX_TABLE_GROUND are enumerated once per process and shared: each
    call returns a fresh list over the same immutable values.  Larger
    ground sizes are refused; ``superext.system_counts`` counts ground 7
    off the walk without listing it.
    """
    if not 1 <= ground_size <= MAX_TABLE_GROUND:
        raise CapacityError(f"enumeration supports ground sizes 1..{MAX_TABLE_GROUND}")
    return list(_shared_systems(ground_size))


@lru_cache(maxsize=None)
def _shared_systems(n: int) -> tuple[SetFamily, ...]:
    """The walk's systems, their minimal sets read off the bitmaps in one pass, sorted."""
    return tuple(SetFamily(n, sets) for sets in sorted(_minimal_sets(_words_of(_walk(n), n), n)))


def _walk(n: int) -> list[int]:
    """The membership bitmaps of every maximal linked system on n points.

    Backtracks over complementary subset pairs: a maximal linked system
    contains exactly one of A and its complement, and membership must be
    upward closed.  Deciding a pair propagates both closures, so dead
    branches are cut early.
    """
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
    return bitmaps


def _words_of(bitmaps, n: int) -> np.ndarray:
    """Python-int family bitmaps over n points in the layout of ``system_words``."""
    width = max(1, (1 << n) >> 6)
    packed = b"".join(bm.to_bytes(8 * width, "little") for bm in bitmaps)
    return np.frombuffer(packed, dtype="<u8").reshape(-1, width).astype(np.uint64)


def system_words(systems: list[SetFamily]) -> np.ndarray:
    """The membership bitmaps of a system list, in its order, as an (m, W) uint64 array.

    Word w holds subsets 64w..64w+63, so W is 1 up to n = 6 and 2^(n-6)
    above.  A bitmap is the union of its minimal sets' superset closures.
    """
    n = systems[0].ground_size
    closures = _words_of(superset_closures(n), n)
    sizes = [len(s.minimal_sets) for s in systems]
    sets = np.fromiter(chain.from_iterable(s.minimal_sets for s in systems), dtype=np.intp, count=sum(sizes))
    return np.bitwise_or.reduceat(closures[sets], np.cumsum([0] + sizes[:-1]), axis=0)


def _minimal_sets(words: np.ndarray, n: int) -> list[tuple[int, ...]]:
    """The minimal sets of each monotone family in a word array, ascending.

    A member s is minimal iff s minus any one of its points is not a
    member; for point b that set sits 2^b bits below s, in the same word
    for b < 6, and for b >= 6 in word j - 2^(b-6) for every word j with
    bit b - 6 set.
    """
    below = np.zeros_like(words)
    for b in range(min(n, 6)):
        holds_b = np.uint64(sum(1 << s for s in range(64) if s >> b & 1))
        below |= (words << np.uint64(1 << b)) & holds_b
    for b in range(6, n):
        step = 1 << (b - 6)
        holds_b = np.flatnonzero(np.arange(words.shape[1]) & step)
        below[:, holds_b] |= words[:, holds_b - step]
    minimal = np.ascontiguousarray(words & ~below, dtype="<u8")
    rows, cols = np.nonzero(np.unpackbits(minimal.view(np.uint8), axis=1, bitorder="little"))
    ends = np.cumsum(np.bincount(rows, minlength=len(minimal))).tolist()
    cols = cols.tolist()
    return [tuple(cols[a:b]) for a, b in zip([0] + ends[:-1], ends)]


def extend_to_mls(family: SetFamily) -> SetFamily:
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
    return family_from_bitmap(n, bitmap)
