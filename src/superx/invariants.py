"""Self-linked subsets and maximal invariant linked systems.

A subset A of a group G is self-linked when A meets every translate xA,
equivalently AA^-1 = G.  Invariant linked families are exactly the
upward closures of cliques in the compatibility graph on self-linked
subsets (A compatible with B iff A meets every xB, i.e. AB^-1 = G):
compatibility is preserved by shifts and supersets, so maximal cliques
are shift- and superset-closed and correspond one-to-one to the maximal
invariant linked systems.

Everything here reads one translation table, ``shifts[x, A] = xA`` for
every element x and subset mask A: the self-linked flags and the orbit
graph of the clique search both come from it.  A maximal clique is a
union of translation orbits of self-linked sets, and two orbits are
compatible exactly when their least members, the keys, are, so the
clique search runs on the graph of the keys alone (the proofs are in
``enumerate_invariant_mls``); each orbit clique is expanded back to its
vertex set.  Both closure facts are asserted on every enumerated clique
in vertex-index space, all cliques at once: the translates and the
one-point supersets of the clique's vertices are looked up as vertex
indices and must all be in the clique.  The certified cliques are
membership bitmaps, and ``families._families_of_bitmaps`` reads every
family off them in one minimal-set pass.
"""

from __future__ import annotations

import numpy as np

from .bitsets import iter_bits
from .errors import CapacityError, ConsistencyError
from .families import SetFamily, _families_of_bitmaps, majority_family
from .groups import FiniteGroup, is_odd_group, shift_table

MAX_INVARIANT_ORDER = 8
MAX_INVARIANT_ORDER_LARGE = 10


def _self_linked_flags(shifts: np.ndarray) -> np.ndarray:
    """flags[A] is True iff A meets every translate xA (AA^-1 = G)."""
    masks = np.arange(shifts.shape[1], dtype=np.uint16)
    return (shifts & masks).all(axis=0)


def _packed(row: np.ndarray) -> int:
    """A boolean row as a Python int with bit j set iff row[j]."""
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def _bit_matrix(masks: list[int], count: int) -> np.ndarray:
    """The (len(masks), count) boolean matrix whose row r holds the bits of masks[r]."""
    width = (count + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(masks), width), axis=1, count=count, bitorder="little").view(bool)


def sl_lower_bound(n: int) -> int:
    """Smallest k with k^2 - k + 1 >= n (exact integer arithmetic)."""
    k = 1
    while k * k - k + 1 < n:
        k += 1
    return k


def sl(g: FiniteGroup) -> int:
    """Smallest size of a self-linked subset: the least popcount of a flagged mask."""
    return int(np.bitwise_count(np.flatnonzero(_self_linked_flags(shift_table(g)))).min())


def self_linked_subsets(g: FiniteGroup) -> list[int]:
    """All non-empty self-linked subsets, ascending by mask."""
    return np.flatnonzero(_self_linked_flags(shift_table(g))).tolist()


def enumerate_half_self_linked(g: FiniteGroup) -> list[int]:
    """Self-linked subsets of size exactly |G|/2, ascending (even order)."""
    n = g.order
    if n % 2:
        raise ConsistencyError("half-size self-linked sets need an even group order")
    flags = _self_linked_flags(shift_table(g))
    half = np.bitwise_count(np.arange(flags.size)) == n // 2
    return np.flatnonzero(flags & half).tolist()


def sim_classes(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The ~ classes of the half-size self-linked sets, sorted, found by key.

    Two sets are equivalent when one is a translate of the other or of
    its complement; the class count s drives the 2^s invariant-system law.
    Translation commutes with complement, x(G - A) = G - xA, so the class
    of A is {xA} together with {x(G - A)}, and its least mask is a key.
    """
    sets = enumerate_half_self_linked(g)
    masks = np.array(sets, dtype=np.uint16)
    comps = g.full_mask ^ masks
    if not np.isin(comps, masks).all():
        raise ConsistencyError("complement of a half-size self-linked set must be one too")
    shifts = shift_table(g)
    keys = np.minimum(shifts[:, masks].min(axis=0), shifts[:, comps].min(axis=0)).tolist()
    groups: dict[int, list[int]] = {}
    for key, m in zip(keys, sets):
        groups.setdefault(key, []).append(m)
    return tuple(sorted(tuple(v) for v in groups.values()))


def _maximal_cliques(adj: list[int]) -> list[int]:
    """Every maximal clique as a vertex bitmask (Bron-Kerbosch with pivoting)."""
    cliques: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            cliques.append(r)
            return
        pivot = max(iter_bits(p | x), key=lambda u: (p & adj[u]).bit_count())
        for v in iter_bits(p & ~adj[pivot]):
            bit = 1 << v
            expand(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    expand(0, (1 << len(adj)) - 1, 0)
    return cliques


def _vertex_index(order: int, vertices: list[int], masks: np.ndarray) -> np.ndarray:
    """The vertex index of every mask in an array of subset masks.

    Only translates and supersets of self-linked sets are looked up, and
    those are self-linked, so a mask that is not a vertex raises
    ConsistencyError.
    """
    index = np.full(1 << order, -1, dtype=np.intp)
    index[vertices] = np.arange(len(vertices))
    found = index[masks]
    if (found < 0).any():
        raise ConsistencyError("a translate or superset of a self-linked set is not self-linked")
    return found


def _invariant_cliques(shifts: np.ndarray, vertices: list[int]) -> list[int]:
    """Every maximal clique of the compatibility graph as a vertex mask, found on the orbit graph.

    The least mask of an orbit is its key and orbit_of[i] is the orbit of
    vertex i.  Orbits o != o' are adjacent iff key o meets every translate
    of key o', which is the whole relation between the two orbits (the
    lemma in ``enumerate_invariant_mls``).
    """
    keys, orbit_of = np.unique(shifts[:, vertices].min(axis=0), return_inverse=True)
    adj = (shifts[:, keys] & keys[:, None, None]).all(axis=1)
    np.fill_diagonal(adj, False)
    in_orbits = _bit_matrix(_maximal_cliques([_packed(row) for row in adj]), len(keys))
    return [_packed(row) for row in in_orbits[:, orbit_of]]


def _closed_families(
    g: FiniteGroup, shifts: np.ndarray, vertices: list[int], cliques: list[int]
) -> list[SetFamily]:
    """Certify that every clique is shift- and superset-closed; return their families.

    Both checks run on one (cliques, vertices) membership matrix.  A
    clique is shift-closed iff it holds sigma[x, i], the index of the
    translate x * vertices[i], for each of its vertices i and every x.
    It is superset-closed iff it holds the index of vertices[i] with any
    one point added, since every superset is reached one point at a time.
    A superset-closed clique is its own upward closure, so its in-family
    bitmap is the family's membership bitmap.
    """
    n = g.order
    verts = np.array(vertices, dtype=np.intp)
    sigma = _vertex_index(n, vertices, shifts[:, verts])
    plus = _vertex_index(n, vertices, verts | (1 << np.arange(n))[:, None])
    member = _bit_matrix(cliques, len(vertices))
    by_vertex = np.ascontiguousarray(member.T)  # by_vertex[i, c]: vertex i is in clique c
    if any((by_vertex & ~by_vertex[image]).any() for image in sigma):
        raise ConsistencyError("maximal clique is not shift-closed")
    if any((by_vertex & ~by_vertex[image]).any() for image in plus):
        raise ConsistencyError("maximal clique is not superset-closed")
    in_family = np.zeros((len(cliques), max(64, 1 << n)), dtype=bool)  # whole uint64 words
    in_family[:, verts] = member
    return _families_of_bitmaps(np.packbits(in_family, axis=1, bitorder="little").view("<u8"), n)


def enumerate_invariant_mls(g: FiniteGroup, *, allow_large: bool = False) -> list[SetFamily]:
    """All maximal invariant linked systems via maximal cliques, sorted by minimal sets.

    Vertices are the self-linked subsets and edges join compatible
    pairs.  The maximal cliques are searched on the orbit graph instead,
    whose vertices are the translation orbits of self-linked subsets:

    - compatibility is a relation between orbits: A ~ B says A meets
      every yB, and xB has the same translates as B, so A ~ xB for
      every x.  The relation is symmetric, since BA^-1 is the inverse
      set of AB^-1, so xA ~ yB for all x and y: two orbits are
      compatible member by member exactly when their keys are;
    - a self-linked A is compatible with its own translates, since A
      meets every yxA;
    - so the orbits that meet a clique are pairwise compatible, and
      their union is again a clique.  A maximal clique is therefore the
      union of the orbits it meets, and those orbits form a maximal
      clique of the orbit graph: an orbit compatible with all of them
      would extend the vertex clique.  Conversely the union of a
      maximal orbit clique is a maximal vertex clique, since a vertex
      compatible with all of it lies in an orbit compatible with all
      of its orbits.  Distinct orbit sets have distinct unions, so the
      correspondence is one to one.

    The orbit graph is read off the keys alone, and its maximal cliques
    are found by pivoting backtracking and expanded to vertex masks.
    Each family is certified shift- and superset-closed on the way out.
    """
    cap = MAX_INVARIANT_ORDER_LARGE if allow_large else MAX_INVARIANT_ORDER
    if g.order > cap:
        raise CapacityError(f"invariant enumeration supports |G| <= {cap}")
    shifts = shift_table(g)
    vertices = self_linked_subsets(g)
    cliques = _invariant_cliques(shifts, vertices)
    return sorted(_closed_families(g, shifts, vertices, cliques), key=lambda f: f.minimal_sets)


def up_majority_count(g: FiniteGroup, systems: list[SetFamily], classes: tuple[tuple[int, ...], ...]) -> int:
    """How many of the invariant systems contain every majority set; equals 2^len(classes)."""
    if g.order % 2:
        raise ConsistencyError("the 2^s law applies to even group orders")
    majority = majority_family(g).bitmap
    count = sum(1 for f in systems if f.bitmap & majority == majority)
    if count != 2 ** len(classes):
        raise ConsistencyError("invariant-system count above the majority family is not 2^s")
    return count


def partition_condition(g: FiniteGroup) -> tuple[bool, tuple[int, int] | None]:
    """Whether every complementary pair has a self-linked side.

    Scans the 2^(|G|-1) pairs through the side containing the identity;
    returns the first failing partition as a witness.
    """
    full = g.full_mask
    flags = _self_linked_flags(shift_table(g))
    sides = np.arange(1 << (g.order - 1)) * 2 + 1  # the side containing element 0
    failing = np.flatnonzero(~flags[sides] & ~flags[full ^ sides])
    if failing.size == 0:
        return True, None
    a = int(sides[failing[0]])
    return False, (a, full ^ a)


def odd_equivalences(g: FiniteGroup, systems: list[SetFamily], *, right_zeros: list[int] | None = None) -> bool:
    """Whether every element of g has odd order, checked against its equivalents.

    systems is the list of invariant systems of g.  The conditions are:
    some of them is maximal linked, all of them are, the partition
    condition, all element orders odd, and (only when the right zeros of
    its lambda table are supplied) that table has a right zero.  They
    must agree; the common value is returned.
    """
    flags = [f.is_maximal_linked() for f in systems]
    values = [any(flags), bool(flags) and all(flags), partition_condition(g)[0], is_odd_group(g)]
    if right_zeros is not None:
        values.append(bool(right_zeros))
    if len(set(values)) != 1:
        raise ConsistencyError(f"{g.name}: odd-order equivalences disagree: {values}")
    return values[0]
