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

``SetFamily(n, sets)`` checks its minimal sets, and so does every
constructor but ``_families_of_bitmaps``, which builds the enumerated
and the invariant systems: its one pass yields each family's minimal
sets ascending and as an antichain, so it checks only the rest itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bitsets import (
    iter_bits,
    minimal_members,
    subsets_of_size,
    superset_closures,
)
from .errors import CapacityError, ConsistencyError
from .groups import FiniteGroup, shift_table

MAX_TABLE_GROUND = 6
_PAIR_BLOCK = 256


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


def enumerate_mls(ground_size: int) -> list[SetFamily]:
    """All maximal linked systems on {0..n-1} in canonical order.

    Results are sorted lexicographically by their minimal-set tuples,
    independent of search order.  The systems of each ground size up to
    MAX_TABLE_GROUND are enumerated once per process and shared: each
    call returns a fresh list over the same immutable values.  Larger
    ground sizes are refused; ``superext.system_counts`` counts ground 7.
    """
    if not 1 <= ground_size <= MAX_TABLE_GROUND:
        raise CapacityError(f"enumeration supports ground sizes 1..{MAX_TABLE_GROUND}")
    return list(_shared_systems(ground_size)[0])


@lru_cache(maxsize=None)
def _shared_systems(n: int) -> tuple[tuple[SetFamily, ...], np.ndarray]:
    """The enumerated systems and their read-only (m, W) words, both ordered by minimal sets in one sort.

    Row i of the words is system i's bitmap; the table build and the orbit counts index these words.
    """
    words = _system_words(n)
    families = _families_of_bitmaps(words, n)
    order = sorted(range(len(families)), key=lambda i: families[i].minimal_sets)
    words = words[order]
    words.flags.writeable = False
    return tuple(families[i] for i in order), words


def _up_families(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(up, dual): uint32 bitmaps of every up-family on k <= 5 points (2, 3, 6, 20, 168, 7,581) and its dual.

    Dedekind's recursion: split at point k - 1, an up-family F is a pair
    F0 <= F1 of up-families on k - 1 points (its members without the point;
    with it, removed), F0 | F1 << 2^(k-1).  Its dual, the sets whose
    complement is not in F, is the pair (dual(F1), dual(F0)).
    """
    if k == 0:
        return np.array([0, 1], dtype=np.uint32), np.array([1, 0], dtype=np.uint32)
    (up, dual), shift = _up_families(k - 1), np.uint32(1 << (k - 1))
    low, high = np.nonzero(up[:, None] & ~up == 0)
    return up[low] | up[high] << shift, dual[high] | dual[low] << shift


def _system_words(n: int) -> np.ndarray:
    """The (m, W) uint64 membership words of every maximal linked system on n <= 7 points.

    Split at point n - 1, a system F is F0 | dual(F0) << 2^(n-1), as it holds
    one set of each complementary pair, and is upward closed iff F0 <= dual(F0).
    Split F0 into up-families G0 <= G1: then G1 <= dual(G0), and F in 2^(n-2)-bit
    quarters is G0, G1, dual(G1), dual(G0).  G0 goes in blocks, not all 7,581 at once.
    """
    if n == 1:
        return np.array([[0b10]], dtype=np.uint64)  # the one system, {{0}}
    (up, dual), h = _up_families(n - 2), 1 << (n - 2)
    pairs = []
    for start in range(0, len(up), _PAIR_BLOCK):
        block = slice(start, start + _PAIR_BLOCK)
        pairs.append(np.flatnonzero((up[block, None] & ~up | up & ~dual[block, None]) == 0) + start * len(up))
    low, high = np.divmod(np.concatenate(pairs), len(up))
    words = np.zeros((len(low), max(1, (4 * h) >> 6)), dtype=np.uint64)
    for q, quarter in enumerate((up[low], up[high], dual[high], dual[low])):
        words[:, (q * h) >> 6] |= quarter << np.uint64((q * h) & 63)
    return words


def _families_of_bitmaps(words: np.ndarray, n: int) -> list[SetFamily]:
    """The families of upward-closed (m, W) membership words over n points, in their order.

    Unchecked, each caching its row as ``bitmap``: the callers keep the rows closed, as every
    enumerated pair is an up-family and invariant cliques are certified superset-closed.
    """
    width = max(1, (1 << n) >> 6)
    outside = ~np.uint64((1 << min(1 << n, 64)) - 2)  # the empty set, and sets past the ground of one word
    if words.shape[1:] != (width,) or (words[:, 0] & outside).any() or not words.any(axis=1).all():
        raise ConsistencyError("a family bitmap needs a member, and no empty set or set past the ground")
    bitmaps = [0] * len(words)
    for w in range(width):
        bitmaps = [bm | x << (64 * w) for bm, x in zip(bitmaps, words[:, w].tolist())]
    found = []
    for sets, bm in zip(_minimal_sets(words, n), bitmaps):
        family = object.__new__(SetFamily)
        object.__setattr__(family, "ground_size", n)
        object.__setattr__(family, "minimal_sets", sets)
        object.__setattr__(family, "bitmap", bm)
        found.append(family)
    return found


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
