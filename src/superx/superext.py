"""The extended product on maximal linked systems over a finite group.

For families A, B on a group X the product is

    A o B = {C subset X : {x in X : x^-1 C in B} in A},

which restricted to one-point systems is the group operation itself.
Cayley tables for the full system space are built with numpy: each
system is a membership bitmap over all 2^n subsets, and the witness sets
{x : x^-1 C in B} are assembled for all systems at once.  Since A o B is
the union over W in A of the fibre {C : witness_B(C) = W}, each row of
product bitmaps is one matrix product of A's 0/1 membership row with the
fibre matrix.  Left translation by a group element commutes with the
product, (xA) o B = x(A o B), so only one row per translation orbit is
computed; every other row is a translated copy of its orbit
representative's row.  Product bitmaps and translated bitmaps are
resolved back to element indices through one hash table over the system
bitmaps, built once per system list.

The one-point systems delta_x are a copy of the group in the table and
delta_x o A = xA, so the build's translation map sigma is the table's
one-point rows; the table analyses read it there and take no group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .c5 import canonical_names
from .errors import CapacityError, ConsistencyError
from .families import MAX_TABLE_GROUND, SetFamily, _walk, _words_of, enumerate_mls, family_from_bitmap, system_words
from .groups import FiniteGroup, shift_table
from .semigroups import SemigroupTable

_ROW_CHUNK = 64
_BITMAP_GROUND_LIMIT = 10
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)  # odd: 2^64 over the golden ratio


def circ(g: FiniteGroup, fam_a: SetFamily, fam_b: SetFamily) -> SetFamily:
    """The product family, membership decided for every candidate set."""
    n = g.order
    if fam_a.ground_size != n or fam_b.ground_size != n:
        raise ConsistencyError("families must live on the group's ground set")
    if n > _BITMAP_GROUND_LIMIT:
        raise CapacityError(f"the product is supported for |G| <= {_BITMAP_GROUND_LIMIT}")
    members = 0
    bm_a, bm_b = fam_a.bitmap, fam_b.bitmap
    tabs = shift_table(g)[list(g.inv)].tolist()  # tabs[x][c] = x^-1 c
    for cand in range(1, 1 << n):
        witness = 0
        for x in g.elements():
            witness |= (bm_b >> tabs[x][cand] & 1) << x
        if bm_a >> witness & 1:
            members |= 1 << cand
    if not members:
        raise ConsistencyError("product family is empty")
    return family_from_bitmap(n, members)


def lambda_table(g: FiniteGroup, systems: list[SetFamily], product) -> SemigroupTable:
    """The lambda(g) table over the given systems, whether built or loaded.

    Elements are labelled by their canonical names over C5 and by
    ``serialize()`` over every other group.
    """
    if g.name == "C5":
        names = canonical_names()
        labels = [names[s.minimal_sets] for s in systems]
    else:
        labels = [s.serialize() for s in systems]
    return SemigroupTable(product, elements=list(systems), labels=labels, name=f"lambda({g.name})")


def build_lambda_table(g: FiniteGroup) -> SemigroupTable:
    """Cayley table of the extended product over all systems on g.

    Only the left-translation orbit representatives (the column minima of
    sigma, see ``shift_orbits``) get computed rows.  Every other row
    follows from left translation, because for every group element x

        C in (xA) o B  <=>  {y : y^-1 C in B} in xA
                       <=>  {z : z^-1 (x^-1 C) in B} in A
                       <=>  x^-1 C in A o B
                       <=>  C in x(A o B),

    the middle step substituting y = xz.  That is (xA) o B = x(A o B),
    from the definition alone, so row sigma[x, r] is sigma[x] applied to
    row r.

    The product bitmaps of a block of representative rows are the rows'
    membership matrix ("W in A", rows x 2^n) times the fibre matrix whose
    cell (W, B) is the mask of candidates C >= 1 with witness W in B, one
    float32 GEMM per exact 16-bit limb of the mask.  Supported up to |G| =
    MAX_TABLE_GROUND; larger groups are refused before anything is
    enumerated.  Product bitmaps are resolved to element indices by the
    ``_BitmapIndex`` hash table, which also resolves sigma; every computed
    product is checked to land back in the enumerated element set, and
    translated ones do because sigma does.
    """
    n = g.order
    if n > MAX_TABLE_GROUND:
        raise CapacityError(f"lambda tables are supported for |G| <= {MAX_TABLE_GROUND}")
    systems = enumerate_mls(n)
    index = _BitmapIndex(system_words(systems))
    sigma = _translation_indices(g, index)
    reps = np.unique(sigma.min(axis=0))
    size = 1 << n
    m = len(systems)
    b = index.words[:, 0]
    one = np.uint64(1)
    subsets = np.arange(size, dtype=np.uint64)

    # witness[c, j] = {x : x^-1 c in system j} for every candidate subset c.
    # x^-1 c is in B iff c is in xB, system sigma[x, j], so bit x of
    # witness[c, j] is bit c of b[sigma[x, j]].
    witness = np.zeros((size, m), dtype=np.uint64)
    for x in range(n):
        witness |= ((b[sigma[x]] >> subsets[:, None]) & one) << np.uint64(x)

    # fibre[limb, w, j] holds one 16-bit limb of the mask of candidates
    # c >= 1 whose witness in system j is w.  For fixed j the fibres are
    # disjoint, so row a of products is the 0/1 row "w in a" times fibre:
    # each limb sum is a sum of distinct powers of two below 2^16 and so is
    # exact in float32 whatever order the BLAS adds in.
    limbs = (size + 15) // 16
    cols = np.arange(m)
    fibre = np.zeros((limbs, size, m), dtype=np.float32)
    for c in range(1, size):
        fibre[c >> 4, witness[c], cols] += np.float32(1 << (c & 15))

    # The representative rows come first and the table is filled after,
    # both in small blocks: no temporary larger than a block is alive
    # beside the full table, so the build's peak memory is the table's.
    rep_rows = np.empty((len(reps), m), dtype=np.int32)
    for start in range(0, len(reps), _ROW_CHUNK):
        block = slice(start, start + _ROW_CHUNK)
        rows = b[reps[block]]
        member = ((rows[:, None] >> subsets) & one).astype(np.float32)
        result = np.zeros((len(rows), m), dtype=np.uint64)
        for limb in range(limbs):
            result |= (member @ fibre[limb]).astype(np.uint64) << np.uint64(16 * limb)
        found = index.find(result.reshape(-1, 1))
        if (found < 0).any():
            raise ConsistencyError("a product left the enumerated system space")
        rep_rows[block] = found.reshape(len(rows), m)

    del witness, fibre  # only the representative rows live on beside the table
    product = np.empty((m, m), dtype=np.int32)
    for start in range(0, len(reps), _ROW_CHUNK):
        block = slice(start, start + _ROW_CHUNK)
        for shift in sigma:
            product[shift[reps[block]]] = shift[rep_rows[block]]
    return lambda_table(g, systems, product)


class _BitmapIndex:
    """Open-addressing hash table from system bitmaps to their list indices.

    ``words`` is the (m, W) uint64 bitmap array of a system list.  The
    table has 2^k int32 slots, 2^k >= 8m, with -1 for an empty slot, and
    probes linearly from a multiply-shift hash (the words folded by
    xor-then-multiply).  Inserts and queries run in vectorised rounds of
    one probe step; a query takes at most as many rounds as the longest
    insert, and an index is returned only for equal words, so a bitmap
    that is not in the list, the empty family 0 included, gets -1.
    """

    def __init__(self, words: np.ndarray):
        self.words = words
        self.bits = (8 * len(words) - 1).bit_length()
        self.slots = np.full(1 << self.bits, -1, dtype=np.int32)
        self.rounds = 0
        keys = np.arange(len(words), dtype=np.int32)
        slot = self._hash(words)
        while keys.size:
            self.rounds += 1
            free = np.flatnonzero(self.slots[slot] < 0)
            # the first pending key aimed at each free slot takes it
            taken, first = np.unique(slot[free], return_index=True)
            self.slots[taken] = keys[free[first]]
            left = np.ones(keys.size, dtype=bool)
            left[free[first]] = False
            keys, slot = keys[left], (slot[left] + 1) & (len(self.slots) - 1)

    def _hash(self, words: np.ndarray) -> np.ndarray:
        h = words[:, 0] * _HASH_MULTIPLIER
        for w in range(1, words.shape[1]):
            h ^= words[:, w]
            h *= _HASH_MULTIPLIER
        h >>= np.uint64(64 - self.bits)
        return h.view(np.int64)

    def find(self, queries: np.ndarray) -> np.ndarray:
        """The list index of each (q, W) query bitmap, -1 where it is absent.

        A probe reads one slot: an empty slot (-1) ends it, a slot holding
        other words sends the query on to the next slot.
        """
        slot = self._hash(queries)
        found = self.slots[slot]
        todo = np.flatnonzero(self._elsewhere(found, queries))
        slot = slot[todo]
        for _ in range(self.rounds - 1):
            slot = (slot + 1) & (len(self.slots) - 1)
            found[todo] = idx = self.slots[slot]
            moving = self._elsewhere(idx, queries[todo])
            todo, slot = todo[moving], slot[moving]
        found[todo] = -1  # probed past the longest insert: absent
        return found

    def _elsewhere(self, idx: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """True where slot index idx holds a system whose words differ from the query."""
        return (idx >= 0) & (self.words[idx] != queries).any(axis=1)  # idx -1 reads the last row; masked


def principal_indices(systems: list[SetFamily]) -> list[int]:
    """Indices of the one-point systems, in group-element order."""
    index = {s.minimal_sets: i for i, s in enumerate(systems)}
    return [index[(1 << x,)] for x in range(systems[0].ground_size)]


def _translation_indices(g: FiniteGroup, index: _BitmapIndex) -> np.ndarray:
    """sigma[x, i], the index of x * systems[i] in the indexed list.

    xA holds xC for every C in A, so its bitmap is A's with bit c moved
    to bit ``shift_table(g)[x, c]``.  The moved bitmap is the OR of the
    moved bytes: moves[p, v] is the moved bitmap of byte value v at byte
    position p, so each element takes one 256-entry gather per byte of
    the bitmaps.  A translate missing from the list raises
    ConsistencyError.
    """
    words = index.words
    m, width = words.shape
    size = 1 << g.order
    data = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)[:, : (size + 7) // 8]
    sigma = np.empty((g.order, m), dtype=np.int32)
    for x, target in enumerate(shift_table(g)):
        one = np.zeros((64 * width, width), dtype=np.uint64)  # one[c]: bit c moved; none past 2^n
        one[np.arange(size), target >> 6] = np.uint64(1) << (target & 63).astype(np.uint64)
        moves = np.zeros((8 * width, 256, width), dtype=np.uint64)
        for k in range(8):
            moves[:, 1 << k : 2 << k] = moves[:, : 1 << k] | one[k::8, None]
        moved = np.zeros_like(words)
        for p in range(data.shape[1]):
            moved |= np.take(moves[p], data[:, p], axis=0)
        sigma[x] = index.find(moved)
    if (sigma < 0).any():
        raise ConsistencyError("translation left the system list")
    return sigma


def _orbits(sigma: np.ndarray) -> tuple[list[int], list[list[int]]]:
    """(orbit_of, orbits) of sigma, sigma[x, i] the index of x times element i.

    The orbit of i is column i of sigma and its least member is its key,
    so orbits are sorted by least element and each orbit lists its member
    indices ascending.
    """
    keys, orbit_of = np.unique(sigma.min(axis=0), return_inverse=True)
    orbit_of = orbit_of.tolist()
    orbits: list[list[int]] = [[] for _ in keys]
    for i, o in enumerate(orbit_of):
        orbits[o].append(i)
    return orbit_of, orbits


def _table_orbits(table: SemigroupTable) -> tuple[list[int], list[list[int]]]:
    """The orbits of a lambda table: delta_x o A = xA, so sigma is its one-point rows."""
    return _orbits(table.product[principal_indices(table.elements)])


def shift_orbits(g: FiniteGroup, systems: list[SetFamily]) -> tuple[list[int], list[list[int]]]:
    """Left-translation orbits of a system list that has no table yet.

    sigma comes from ``_translation_indices``, as in ``build_lambda_table``,
    which writes it into the one-point rows the table analyses read.
    """
    return _orbits(_translation_indices(g, _BitmapIndex(system_words(systems))))


def system_counts(g: FiniteGroup, *, allow_large: bool = False) -> tuple[int, int]:
    """(|lambda(g)|, |lambda(g)/g|), counted off the walk's bitmaps without a system list.

    The walk yields every system once, so the count is its length; sigma
    on the walk order resolves translates through the hash index, and
    each translation orbit has one least member, its column minimum.
    Ground 7 (1.4 M systems) is gated behind allow_large and larger
    grounds are refused, before the walk starts.
    """
    n = g.order
    if n > 7:
        raise CapacityError("enumeration supports ground sizes 1..7")
    if n == 7 and not allow_large:
        raise CapacityError("ground size 7 is gated behind allow_large")
    sigma = _translation_indices(g, _BitmapIndex(_words_of(_walk(n), n)))
    return sigma.shape[1], len(np.unique(sigma.min(axis=0)))


@dataclass
class OrbitQuotient:
    """Orbit decomposition of a lambda table under left translation.

    ``product`` is the quotient product on orbit ids, or None when the
    one-point systems are not central and it is undefined.
    """

    orbit_of: list[int]
    orbits: list[list[int]]
    product: np.ndarray | None

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)


def orbit_quotient(table: SemigroupTable) -> OrbitQuotient:
    """Quotient of a lambda table by the translation action.

    The quotient product is only defined when the one-point systems are
    central; it is then validated over all representative pairs.
    """
    p = table.product
    principal = principal_indices(table.elements)
    sigma = p[principal]
    orbit_of, orbits = _orbits(sigma)
    quotient = None
    if np.array_equal(sigma, p[:, principal].T):
        oa = np.array(orbit_of, dtype=np.int32)
        reps = [members[0] for members in orbits]
        quotient = oa[p[np.ix_(reps, reps)]]
        # every cell, not just the representatives, must map onto its orbit pair
        for start in range(0, len(oa), _ROW_CHUNK):
            rows = slice(start, start + _ROW_CHUNK)
            if not np.array_equal(oa[p[rows]], quotient[oa[rows, None], oa]):
                raise ConsistencyError("orbit product is not well-defined")
    return OrbitQuotient(orbit_of, orbits, quotient)


def quotient_table(q: OrbitQuotient) -> SemigroupTable:
    if q.product is None:
        raise ConsistencyError("quotient product is not defined (group not central)")
    reps = [members[0] for members in q.orbits]
    return SemigroupTable(q.product, elements=reps, name="orbit-quotient")


def transversal_subsemigroup_search(table: SemigroupTable) -> list[int] | None:
    """A subsemigroup meeting every orbit exactly once, or None.

    Depth-first over orbits in size order; each selection propagates
    closure under products, and two selections colliding on one orbit
    prune the branch.  Candidates are tried in ascending element order,
    so a found transversal is deterministic.
    """
    orbit_of, orbits = _table_orbits(table)
    p = table.product
    order = sorted(range(len(orbits)), key=lambda o: (len(orbits[o]), orbits[o][0]))
    chosen: dict[int, int] = {}

    def propagate(fresh: list[int], trail: list[int]) -> bool:
        while fresh:
            a = fresh.pop()
            for b in list(chosen.values()):
                for prod in (int(p[a, b]), int(p[b, a]), int(p[a, a])):
                    o = orbit_of[prod]
                    if o in chosen:
                        if chosen[o] != prod:
                            return False
                    else:
                        chosen[o] = prod
                        trail.append(o)
                        fresh.append(prod)
        return True

    def search(i: int) -> bool:
        while i < len(order) and order[i] in chosen:
            i += 1
        if i == len(order):
            return True
        oid = order[i]
        for cand in orbits[oid]:
            trail = [oid]
            chosen[oid] = cand
            if propagate([cand], trail) and search(i + 1):
                return True
            for o in trail:
                del chosen[o]
        return False

    if search(0):
        picks = sorted(chosen.values())
        if not is_transversal_subsemigroup(table, picks):
            raise ConsistencyError("transversal search returned no transversal subsemigroup")
        return picks
    return None


def is_transversal_subsemigroup(table: SemigroupTable, picks: list[int]) -> bool:
    """Check a candidate: closed under products, one element per orbit."""
    orbit_of, orbits = _table_orbits(table)
    if sorted(orbit_of[i] for i in picks) != list(range(len(orbits))):
        return False
    members = set(picks)
    return all(int(table.product[a, b]) in members for a in picks for b in picks)
