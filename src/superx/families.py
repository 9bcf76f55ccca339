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

``SetFamily(n, sets)`` checks its minimal sets.  Every other family is
built by one unchecked constructor, ``_derived``, from minimal sets its
caller derived ascending and as an antichain together with their
membership bitmap, so every family carries its bitmap.  An enumerated
system's family is built only when something reads it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitsets import _points_missing, iter_bits, minimal_members, subsets_of_size, up_closure
from .errors import CapacityError, ConsistencyError
from .groups import FiniteGroup

MAX_TABLE_GROUND = 6
_PAIR_BLOCK = 256


@dataclass(frozen=True)
class SetFamily:
    """An upward-closed family given by its minimal sets; every constructor also stores its membership ``bitmap``."""

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
        # The sets are their own minimal members iff none contains another.  Past
        # 12 points this raises CapacityError, so the checks above go first.
        up = up_closure(sum(1 << s for s in sets), n)
        if minimal_members(up, n) != list(sets):
            raise ConsistencyError("minimal sets must form an antichain")
        object.__setattr__(self, "bitmap", up)

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

    def is_maximal_linked(self) -> bool:
        """True iff self equals its transversal: it holds exactly one set of every complementary pair."""
        return self.bitmap == self._hitting_bitmap()

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
    if any(s >> ground_size for s in sets):
        raise ConsistencyError("member exceeds the ground set")
    return family_from_bitmap(ground_size, sum(1 << s for s in set(sets)))


def family_from_bitmap(ground_size: int, bitmap: int) -> SetFamily:
    """The family of the members of a bitmap and their supersets."""
    up = up_closure(bitmap, ground_size)
    return _derived(ground_size, tuple(minimal_members(up, ground_size)), up)


def principal_ultrafilter(g: FiniteGroup, x: int) -> SetFamily:
    """The system of all sets containing the point x."""
    return _derived(g.order, (1 << x,), up_closure(1 << (1 << x), g.order))


def _derived(n: int, sets: tuple[int, ...], bitmap: int) -> SetFamily:
    """The one unchecked constructor: minimal sets its caller derived ascending and as an antichain, and their closure.

    The sets are checked for the rest as ``SetFamily`` does; ``bitmap`` is stored as the family's membership bitmap.
    """
    if not sets:
        raise ConsistencyError("a set family needs at least one member")
    if sets[0] == 0:  # ascending: the least and the greatest set decide
        raise ConsistencyError("the empty set cannot be a member")
    if sets[-1] >> n:
        raise ConsistencyError("member exceeds the ground set")
    _points_missing(n)  # CapacityError past 12 points
    family = object.__new__(SetFamily)
    object.__setattr__(family, "ground_size", n)
    object.__setattr__(family, "minimal_sets", sets)
    object.__setattr__(family, "bitmap", bitmap)
    return family


def majority_family(g: FiniteGroup) -> SetFamily:
    """All subsets of size strictly more than half the group order."""
    k = g.order // 2 + 1
    return SetFamily(g.order, tuple(subsets_of_size(g.order, k)))


def enumerate_mls(ground_size: int) -> _SystemList:
    """All maximal linked systems on {0..n-1} in canonical order.

    Results are sorted lexicographically by their minimal-set tuples,
    independent of search order.  The systems of each ground size up to
    MAX_TABLE_GROUND are enumerated once per process: each call returns
    the same read-only sequence, its sorted words as ``.words``.  Larger
    ground sizes are refused; ``superext.system_counts`` counts ground 7.
    """
    if not 1 <= ground_size <= MAX_TABLE_GROUND:
        raise CapacityError(f"enumeration supports ground sizes 1..{MAX_TABLE_GROUND}")
    return _shared_systems(ground_size)


@lru_cache(maxsize=None)
def _shared_systems(n: int) -> _SystemList:
    """The enumerated systems as one shared sequence over their read-only (m, 1) words, sorted by minimal sets.

    Two systems' bitmaps first differ at a set minimal in the one holding it, below which they share minimal sets;
    the other's go on past it, or they would close to a smaller linked system inside it.  So the words sort as
    their complements read from bit 0 down.  Row i is system i's bitmap; the table build and orbit counts read it.
    """
    words = _system_words(n)
    words = words[np.argsort(np.packbits(_bits(~words[:, 0]), axis=1, bitorder="big").view(">u8")[:, 0])]
    words.flags.writeable = False
    return _SystemList(words, n)


class _SystemList(Sequence):
    """The systems of read-only (m, 1) words on n <= 6 points; each family is built when first read, and kept.

    Item i is built by ``family_from_bitmap``, and iterating builds the rest in one ``_families_of_bitmaps`` pass.
    Threads racing on one family build equal values.
    """

    def __init__(self, words: np.ndarray, n: int):
        self.words = words
        self.ground_size = n
        self._built: list[SetFamily | None] = [None] * len(words)

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        family = self._built[i]
        if family is None:
            family = self._built[i] = family_from_bitmap(self.ground_size, int(self.words[i, 0]))
        return family

    def __iter__(self):
        missing = [i for i, family in enumerate(self._built) if family is None]
        if missing:
            for i, family in zip(missing, _families_of_bitmaps(self.words[missing], self.ground_size)):
                self._built[i] = family
        return iter(self._built)

    def index(self, family: SetFamily) -> int:
        """The position of a system, found by its bitmap; ValueError if it is not one."""
        if family.ground_size == self.ground_size:
            hits = np.flatnonzero(self.words[:, 0] == family.bitmap)
            if hits.size:
                return int(hits[0])
        raise ValueError(f"{family} is not a maximal linked system on {self.ground_size} points")


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

    Each is built by ``_derived`` with its row as ``bitmap``: the callers keep the rows closed, as
    every enumerated pair is an up-family and invariant cliques are certified superset-closed.
    """
    width = max(1, (1 << n) >> 6)
    outside = ~np.uint64((1 << min(1 << n, 64)) - 2)  # the empty set, and sets past the ground of one word
    if words.shape[1:] != (width,) or (words[:, 0] & outside).any() or not words.any(axis=1).all():
        raise ConsistencyError("a family bitmap needs a member, and no empty set or set past the ground")
    bitmaps = words[:, 0].tolist()
    for w in range(1, width):
        bitmaps = [bm | x << (64 * w) for bm, x in zip(bitmaps, words[:, w].tolist())]
    return [_derived(n, sets, bm) for sets, bm in zip(_minimal_sets(words, n), bitmaps)]


def _bits(words: np.ndarray) -> np.ndarray:
    """(k, 64) uint8: bit c of each of k 64-bit words in its column c."""
    return np.unpackbits(words.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")


def _minimal_sets(words: np.ndarray, n: int) -> list[tuple[int, ...]]:
    """The minimal sets of each monotone family in a word array, ascending.

    A member s is minimal iff s minus any one of its points is not a
    member; for point b that set sits 2^b bits below s, in the same word
    for b < 6 (the members missing b, moved up by 2^b), and for b >= 6 in
    word j - 2^(b-6) for every word j with bit b - 6 set.
    """
    below = np.zeros_like(words)
    for b, missing in enumerate(_points_missing(6)[:n]):
        below |= (words & np.uint64(missing)) << np.uint64(1 << b)
    for b in range(6, n):
        step = 1 << (b - 6)
        holds_b = np.flatnonzero(np.arange(words.shape[1]) & step)
        below[:, holds_b] |= words[:, holds_b - step]
    minimal = np.ascontiguousarray(words & ~below, dtype="<u8")
    row = 64 * words.shape[1]  # bits per family
    flat = np.flatnonzero(np.unpackbits(minimal.view(np.uint8), bitorder="little").view(np.bool_))
    ends = np.searchsorted(flat, np.arange(row, row * len(words) + 1, row)).tolist()  # each family's members end here
    cols = (flat % row).tolist()
    return list(map(tuple, map(cols.__getitem__, map(slice, [0] + ends[:-1], ends))))

