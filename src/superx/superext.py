"""The extended product on maximal linked systems over a finite group.

For families A, B on a group X the product is

    A o B = {C subset X : {x in X : x^-1 C in B} in A},

which restricted to one-point systems is the group operation itself.
``build_lambda_table`` builds the Cayley table of the full system space
with numpy, each system a membership bitmap over all 2^n subsets, a row
of the enumerator's own word array.  As (xA) o (By) = x(A o B)y, it
computes only the cells of a left- and a right-translation orbit
representative (447 x 447 of the 2,646 x 2,646 on C6 and on D6), and
resolves bitmaps to element indices through an exact index on their two
low quarters, read as one flat key.  Each computed row then spreads over
its right orbit and its left translates with two takes, through an
inverse column map of rho and a uint16 copy of sigma, so every cell of
the table costs one take and no cast.  ``system_counts`` counts orbits
with no index at all.

The one-point systems delta_x are a copy of the group in the table,
delta_x o A = xA and A o delta_y = Ay, so the build's translation maps
are the table's one-point rows (sigma) and columns (rho); the table
analyses read them there and take no group.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import replace
from itertools import combinations

import numpy as np

from .c5 import canonical_names
from .errors import CapacityError, ConsistencyError
from .families import (
    MAX_TABLE_GROUND,
    SetFamily,
    _bits,
    _shared_systems,
    _system_words,
    _up_families,
    family_from_bitmap,
    generate_family,
)
from .groups import FiniteGroup, shift_table
from .semigroups import SemigroupTable

_ROW_CHUNK = 16  # orbit_quotient's check: an intp copy of 16 rows and two uint16 gathers, 12 x 16 x m bytes
_BUILD_ROWS = 16  # the build's GEMM block of representative rows
_TRANSLATE_ROWS = 1 << 14  # rows per block of _translated: their bytes, gather indices and output fit a 2 MB L2


def circ(g: FiniteGroup, fam_a: SetFamily, fam_b: SetFamily) -> SetFamily:
    """The product family, membership decided for every candidate set; up to order 12, the families' own limit."""
    n = g.order
    if fam_a.ground_size != n or fam_b.ground_size != n:
        raise ConsistencyError("families must live on the group's ground set")
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


def noncommuting_pair(g: FiniteGroup) -> tuple[SetFamily, SetFamily] | None:
    """The first pair of triangle systems (A, B) with A o B != B o A, or None if every pair commutes.

    The triangle system on points a < b < c, the sets holding at least two of them, is maximal linked on
    any ground: two such sets share a point, and of a set and its complement one holds two of the three.
    Triangles come in ``combinations(range(n), 3)`` order, and pairs (i, j), i < j, in ``combinations`` order.
    """
    n = g.order
    triples = combinations(range(n), 3)
    triangles = [generate_family(n, (1 << a | 1 << b, 1 << a | 1 << c, 1 << b | 1 << c)) for a, b, c in triples]
    for fam_a, fam_b in combinations(triangles, 2):
        if circ(g, fam_a, fam_b) != circ(g, fam_b, fam_a):
            return fam_a, fam_b
    return None


def lambda_table(g: FiniteGroup, systems: list[SetFamily], product) -> SemigroupTable:
    """The lambda(g) table over the given systems, whether built or loaded."""
    return SemigroupTable(product, elements=list(systems), name=f"lambda({g.name})")


def element_namer(g: FiniteGroup, table: SemigroupTable) -> Callable[[int], str]:
    """How a report prints element i of the lambda(g) table.

    Its canonical name over C5, ``serialize()`` over every other group.
    The table stores only its systems, so a report names just the
    elements it prints.
    """
    if g.name == "C5":
        names = canonical_names()
        return lambda i: names[table.elements[i].minimal_sets]
    return lambda i: table.elements[i].serialize()


def build_lambda_table(g: FiniteGroup) -> SemigroupTable:
    """Cayley table of the extended product over all systems on g.

    Only the core cells (r, s), r a left-translation orbit representative
    (a column minimum of sigma, see ``_orbits``) and s a
    right-translation one (a column minimum of rho, rho[y, j] the index
    of systems[j] y), are computed.  Every other cell follows from
    translation on either side, because for every group element x

        C in (xA) o B  <=>  {y : y^-1 C in B} in xA
                       <=>  {z : z^-1 (x^-1 C) in B} in A
                       <=>  x^-1 C in A o B
                       <=>  C in x(A o B),

    the middle step substituting y = xz, and for every group element y

        C in A o (By)  <=>  {z : z^-1 C in By} in A
                       <=>  {z : z^-1 C y^-1 in B} in A
                       <=>  C y^-1 in A o B
                       <=>  C in (A o B)y.

    Both from the definition alone, so (xA) o (By) = x(A o B)y: cell
    (r, rho[y, s]) is rho[y] applied to cell (r, s), which fills the
    representative rows, and row sigma[x, r] is sigma[x] applied to row r.

    The product bitmaps of a block of core cells are the rows' membership
    matrix ("W in A", rows x 2^n) times the fibre matrix whose cell (W, B)
    holds the mask of candidates C >= 1 with witness W in B as four exact
    16-bit float32 limbs: one GEMM per block, cast to uint16, reads as the
    uint64 bitmaps.  The GEMMs run on the one BLAS thread that importing
    superx sets up, and their sums are exact on any pool.  ``_SystemIndex``
    resolves the bitmaps, as it resolved sigma and rho, and a block with a
    product outside the system list raises before any of its rows is read.

    The spread fills the np.empty table by takes, with no dtype cast.
    Column j is rho[y_j, rreps[k_j]], so row r holds rho[y_j, core[r, k_j]]
    there: rho_t[core[r]] (rho transposed, one row per k) read at code[j] =
    k_j n + y_j.  One take of sigma_t (each system's n translates in 16
    bytes) at that row gives the n rows sigma[:, r] at once.  sigma[:, reps]
    covers every row and rho[:, rreps] every column, so every cell is
    written, and the clip-mode takes read only core cells checked >= 0 and
    entries of sigma and rho, so none clips.  The first touch of the fresh
    14.0 MB table of lambda(C6), about 350 page faults and 3-9 ms in a new
    process on a 2-vCPU host, is a floor no source change removes.
    Supported up to |G| = MAX_TABLE_GROUND, every system one 64-bit word;
    larger groups are refused before anything is enumerated.
    """
    n = g.order
    if n > MAX_TABLE_GROUND:
        raise CapacityError(f"lambda tables are supported for |G| <= {MAX_TABLE_GROUND}")
    systems, words = _shared_systems(n)
    return lambda_table(g, systems, _product(g, words[:, 0]))


def _product(g: FiniteGroup, b: np.ndarray) -> np.ndarray:
    """The product table over the systems whose word 0s are b; its scratch is freed before the table's checks run."""
    n, m = g.order, len(b)
    index = _SystemIndex(b, n)
    sigma_t = np.zeros((m, 8), dtype=np.uint16)  # sigma_t[i, x] = sigma[x, i]: a system's translates in 16 bytes
    sigma_t[:, :n] = _translation_indices(g, index).T  # m <= 2,646
    rho_t = _translation_indices(replace(g, mul=tuple(zip(*g.mul))), index).T.copy()  # rho_t[j, y] = rho[y, j]
    reps = np.flatnonzero(sigma_t[:, :n].min(axis=1) == np.arange(m))  # each orbit's least member
    rreps = np.flatnonzero(rho_t.min(axis=1) == np.arange(m))  # and each right orbit's
    size = 1 << n

    # witness[k, c] = {x : x^-1 c in system rreps[k]} for every candidate
    # subset c.  x^-1 c is in B iff c is in xB, so bit x of witness[k, c]
    # is bit c of b[sigma[x, rreps[k]]].
    witness = np.zeros((len(rreps), 64), dtype=np.uint8)
    for x in range(n):
        witness |= _bits(b[sigma_t[rreps, x]]) << x

    # fibre[w, 4 k + limb] holds one 16-bit limb of the mask of candidates
    # c >= 1 whose witness in system rreps[k] is w.  For fixed k the fibres
    # are disjoint, so row a of products is the 0/1 row "w in a" times
    # fibre: each limb sum is a sum of distinct powers of two below 2^16
    # and so is exact in float32 whatever order the BLAS adds in.  A cell's
    # limbs sit in the order of a native uint64's 16-bit quarters.
    c = np.arange(1, size)
    limb = c >> 4 if sys.byteorder == "little" else 3 - (c >> 4)
    fibre = np.zeros((size, 4 * len(rreps)), dtype=np.float32)
    np.add.at(fibre, (witness[:, 1:size], 4 * np.arange(len(rreps))[:, None] + limb), (1 << (c & 15)).astype(np.float32))

    right = rho_t[rreps]
    code = np.empty(m, dtype=np.intp)  # code[j] = k n + y for some column j = rho[y, rreps[k]]
    code[right] = np.arange(right.size).reshape(right.shape)
    spread = np.empty((m, 8), dtype=np.uint16)
    product = np.empty((m, m), dtype=np.uint16)
    for start in range(0, len(reps), _BUILD_ROWS):
        block = reps[start : start + _BUILD_ROWS]
        member = _bits(b[block])[:, :size].astype(np.float32)
        core = index.find((member @ fibre).astype(np.uint16).view(np.uint64))
        if (core < 0).any():
            raise ConsistencyError("a product left the enumerated system space")
        for cells, r in zip(core, block):
            sigma_t.take(rho_t.take(cells, axis=0, mode="clip").take(code), axis=0, out=spread, mode="clip")
            product[sigma_t[r, :n]] = spread[:, :n].T
    return product


class _SystemIndex:
    """Exact index from the bitmaps of a system list on n <= MAX_TABLE_GROUND points to their rows.

    A system holds one set of each complementary pair, so its bitmap is fixed
    by its two low 2^(n-2)-bit quarters G0 and G1, up-families on n - 2 points
    (see ``_system_words``).  ``pos`` maps a quarter to its position among
    those up-families, one more for any other value, u in all, and the flat
    ``rows[pos(G0) + u pos(G1)]`` is the row of the system with those
    quarters, -1 where there is none.  Only equal bitmaps return the row: a
    bitmap not in the list, 0 included, gets -1.
    """

    def __init__(self, bitmaps: np.ndarray, n: int):
        self.bitmaps = bitmaps
        self.h = max(1, (1 << n) >> 2)  # ground 1: G0 and G1 are the bits of {} and {0}
        up = _up_families(max(0, n - 2))[0]
        self.u = len(up) + 1
        self.pos = np.full(1 << self.h, len(up), dtype=np.int16)
        self.pos[up] = np.arange(len(up))
        self.rows = np.full(self.u * self.u, -1, dtype=np.intp)
        self.rows[self._keys(bitmaps)] = np.arange(len(bitmaps))

    def _keys(self, bitmaps: np.ndarray) -> np.ndarray:
        """pos(G0) + u pos(G1), cut from an int64 view of the words: on 64-bit hosts no take casts its indices."""
        words, quarter = bitmaps.view(np.int64), (1 << self.h) - 1
        key = np.multiply(self.pos.take(words >> self.h & quarter), self.u, dtype=np.intp)
        key += self.pos.take(words & quarter)
        return key

    def find(self, bitmaps: np.ndarray) -> np.ndarray:
        """The row of each query bitmap, in the queries' shape, -1 where it is absent."""
        row = self.rows.take(self._keys(bitmaps))
        return np.where(self.bitmaps.take(row) == bitmaps, row, -1)  # row -1 reads the last bitmap; masked


def principal_indices(systems: list[SetFamily]) -> list[int]:
    """Indices of the one-point systems, in group-element order."""
    index = {s.minimal_sets: i for i, s in enumerate(systems)}
    return [index[(1 << x,)] for x in range(systems[0].ground_size)]


def _translation_indices(g: FiniteGroup, index: _SystemIndex) -> np.ndarray:
    """sigma[x, i], the index of x * systems[i] in the indexed list.

    x(yA) = (xy)A gives sigma[xy] = sigma[x][sigma[y]]: only a generating set (each the
    least element outside the subgroup of those before it) is translated bitwise, and
    the other rows are gathers.  A translate missing from the list raises ConsistencyError.
    """
    sigma = np.empty((g.order, len(index.bitmaps)), dtype=np.intp)
    sigma[0], filled, generators = np.arange(len(index.bitmaps)), [0], []
    for x in g.elements():
        if x in filled:
            continue
        sigma[x] = index.find(_translated(g, x, index.bitmaps))
        if (sigma[x] < 0).any():
            raise ConsistencyError("translation left the system list")
        generators.append(x)
        for y in filled:  # grows as it is read, so the rows close under the generators
            for s in generators:
                if (z := g.mul[s][y]) not in filled:
                    sigma[z] = sigma[s][sigma[y]]
                    filled.append(z)
    return sigma


def _translated(g: FiniteGroup, x: int, words: np.ndarray) -> np.ndarray:
    """Word 0 of x times each system of a word array, (m,) or (m, W): the translate's sets below 64.

    xA's bitmap moves A's bit c to ``shift_table(g)[x, c]``, so its word 0 is an OR
    of moved bytes, moves[p, v] the bits below 64 that byte value v at byte
    position p moves to; past 6 points, bytes of every word move into word 0.
    """
    target = shift_table(g)[x].astype(np.uint64)
    data = np.ascontiguousarray(words, dtype="<u8").view(np.uint8).reshape(len(words), -1)
    one = np.zeros(8 * data.shape[1], dtype=np.uint64)  # one[c]: bit c moved, 0 where it leaves word 0
    low = np.flatnonzero(target < 64)
    one[low] = np.uint64(1) << target[low]
    moves = np.zeros((data.shape[1], 256), dtype=np.uint64)
    for k in range(8):
        moves[:, 1 << k : 2 << k] = moves[:, : 1 << k] | one[k::8, None]
    live = np.flatnonzero(moves.any(axis=1))  # not the bytes past 2^n, nor on 7 points the half some x moves past word 0
    moved = np.zeros(len(words), dtype=np.uint64)
    for start in range(0, len(words), _TRANSLATE_ROWS):
        rows, block = data[start : start + _TRANSLATE_ROWS], moved[start : start + _TRANSLATE_ROWS]
        for p in live:
            block |= moves[p][rows[:, p]]
    return moved


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


def system_counts(g: FiniteGroup, *, allow_large: bool = False) -> tuple[int, int]:
    """(|lambda(g)|, |lambda(g)/g|), counted off the enumerator's words with no table and no index.

    Word 0 fixes a system: up to 6 points it is the whole bitmap, and on 7 it
    holds the members missing point 6, which fix the rest as a system holds
    one set of each complementary pair.  So each translation orbit has one
    member whose word 0 is at most each of its translates': those are
    counted.  x permutes all systems, so a translate list whose sorted word
    0s are the list's is the list, and any other raises ConsistencyError.
    Ground 7 (1.4 M systems) streams ``_system_words``, with no system list,
    gated behind allow_large; larger grounds are refused first.
    """
    n = g.order
    if n > 7:
        raise CapacityError("enumeration supports ground sizes 1..7")
    if n == 7 and not allow_large:
        raise CapacityError("ground size 7 is gated behind allow_large")
    words = _system_words(n) if n > MAX_TABLE_GROUND else _shared_systems(n)[1]
    first = words[:, 0]
    ordered = np.sort(first)
    least = np.ones(len(words), dtype=bool)
    for x in range(1, n):  # element 0 is the identity
        moved = _translated(g, x, words)
        least &= first <= moved
        if not np.array_equal(np.sort(moved), ordered):
            raise ConsistencyError("translation left the system list")
    return len(words), int(np.count_nonzero(least))


def orbit_quotient(table: SemigroupTable) -> tuple[list[int], list[list[int]], np.ndarray | None]:
    """(orbit_of, orbits, product): the quotient of a lambda table by the translation action.

    product, on orbit ids, is None when the one-point systems are not
    central and it is undefined; a defined one is checked on every cell.
    """
    p = table.product
    principal = principal_indices(table.elements)
    sigma = p[principal]
    orbit_of, orbits = _orbits(sigma)
    quotient = None
    if np.array_equal(sigma, p[:, principal].T):
        oa = np.array(orbit_of, dtype=np.uint16)
        reps = [members[0] for members in orbits]
        quotient = oa[p[np.ix_(reps, reps)]]
        # every cell (i, j), not just the representatives, must lie in
        # orbit quotient[oa[i], oa[j]], checked _ROW_CHUNK rows at a time:
        # on lambda(C6) the call's tracemalloc peak is 1.0 MB beside the table
        for start in range(0, len(oa), _ROW_CHUNK):
            rows = slice(start, start + _ROW_CHUNK)
            if not np.array_equal(oa.take(p[rows].astype(np.intp)), quotient[oa[rows]].take(oa, axis=1)):
                raise ConsistencyError("orbit product is not well-defined")
    return orbit_of, orbits, quotient


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
