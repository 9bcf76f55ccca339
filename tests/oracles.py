"""Independent brute-force oracles the tests compare against.

Everything here recomputes results from first principles with the
dumbest algorithm available, deliberately sharing no code path with the
package implementations.  ``traced_peak`` and ``table_digest`` measure
instead: the memory budgets of the table passes are checked with the
first, the pinned order-6 tables with the second.  ``fresh_interpreter``
runs code in a new Python process that imports superx from this checkout.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tracemalloc
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

from superx.errors import CapacityError, ConsistencyError
from superx.families import SetFamily, enumerate_mls
from superx.semigroups import SemigroupTable

ISO_ORDER_LIMIT = 16


def bits_of(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def oracle_hitting_family(minimal_sets, n):
    """Minimal hitting sets by full scan plus pairwise minimality."""
    hitting = [
        c for c in range(1, 1 << n) if all(c & s for s in minimal_sets)
    ]
    out = []
    for c in hitting:
        if not any(d != c and d & c == d for d in hitting):
            out.append(c)
    return tuple(sorted(out))


def oracle_upward_closure(sets, n):
    members = set()
    for s in sets:
        for t in range(s, 1 << n):
            if t & s == s:
                members.add(t)
    return members


def oracle_superset_closures(n):
    """closures[s] = family bitmap of all supersets of s, by walking t = (t + 1) | s up to the full set."""
    full = (1 << n) - 1
    closures = []
    for s in range(1 << n):
        bm, t = 1 << s, s
        while t != full:
            t = (t + 1) | s
            bm |= 1 << t
        closures.append(bm)
    return closures


def oracle_minimal_members(bitmap, n):
    """The members of a family bitmap with no member among their strict subsets, by walking those subsets."""
    out = []
    for s in range(1 << n):
        if bitmap >> s & 1:
            t, below = s, False
            while t and not below:
                t = (t - 1) & s
                below = bool(bitmap >> t & 1)
            if not below:
                out.append(s)
    return out


def oracle_extend_to_mls(minimal_sets, n):
    """The bitmap of the greedy completion by a member scan.

    Starting from every member, it adds in ascending mask order each set
    that meets all members so far.
    """
    members = sorted(oracle_upward_closure(minimal_sets, n))
    taken = set(members)
    for cand in range(1, 1 << n):
        if cand not in taken and all(cand & m for m in members):
            members.append(cand)
            taken.add(cand)
    return sum(1 << m for m in members)


def oracle_minimal_sets(members):
    return tuple(sorted(s for s in members if not any(t != s and t & s == t for t in members)))


def oracle_all_mls(n):
    """Every maximal linked system on n points, by filtering all antichains.

    Enumerates all subsets of the non-empty subsets, keeps antichains,
    and keeps those whose upward closure equals its hitting family.
    """
    subsets = list(range(1, 1 << n))
    found = []
    for picks in range(1, 1 << len(subsets)):
        chosen = [subsets[i] for i in range(len(subsets)) if picks >> i & 1]
        if any(
            a != b and a & b == a for a in chosen for b in chosen
        ):
            continue
        if oracle_hitting_family(chosen, n) == tuple(sorted(chosen)):
            found.append(tuple(sorted(chosen)))
    return sorted(found)


def oracle_walk(n):
    """The membership bitmaps of every maximal linked system on n points, by backtracking.

    A second enumerator, independent of the package's pair recursion.  It
    decides the complementary subset pairs one at a time: a maximal linked
    system contains exactly one of A and its complement, and membership is
    upward closed, so taking A puts every superset of A inside and every
    subset of its complement outside.  A branch whose inside and outside
    meet is cut.  The closures are scanned here, not taken from
    ``superx.bitsets``.
    """
    size = 1 << n
    full = size - 1
    sup = [sum(1 << t for t in range(size) if t & s == s) for s in range(size)]
    sub = [sum(1 << t for t in range(size) if t & s == t) for s in range(size)]
    reps = sorted((s for s in range(1, size) if s < full ^ s), key=lambda s: (bin(s).count("1"), s))
    bitmaps = []

    def walk(i, inside, outside):
        while i < len(reps) and (inside | outside) >> reps[i] & 1:
            i += 1
        if i == len(reps):
            bitmaps.append(inside)
            return
        for take, drop in ((reps[i], full ^ reps[i]), (full ^ reps[i], reps[i])):
            new_in, new_out = inside | sup[take], outside | sub[drop]
            if not new_in & new_out:
                walk(i + 1, new_in, new_out)

    walk(0, sup[full], 1)
    return bitmaps


def oracle_subgroups(mul):
    """All subgroups by scanning every subset containing the identity."""
    n = len(mul)
    out = []
    for mask in range(1, 1 << n):
        if not mask & 1:
            continue
        elems = bits_of(mask)
        if all(mask >> mul[a][b] & 1 for a in elems for b in elems):
            out.append(mask)
    return sorted(out, key=lambda m: (bin(m).count("1"), m))


def oracle_element_order(mul, x):
    k, y = 1, x
    while y != 0:
        y = mul[y][x]
        k += 1
    return k


def oracle_translate(mul, x, mask):
    return sum(1 << mul[x][a] for a in bits_of(mask))


def words_of(bitmaps, n):
    """Python-int family bitmaps over n points as an (m, W) uint64 array; word w holds subsets 64w..64w+63."""
    width = max(1, (1 << n) >> 6)
    rows = [[bm >> (64 * w) & (1 << 64) - 1 for w in range(width)] for bm in bitmaps]
    return np.array(rows, dtype=np.uint64).reshape(-1, width)


def cache_digest(g, npy_bytes):
    """The sha256 a cache entry's header carries: g's table, then each enumerated system's membership bitmap,
    closed up from its minimal sets, as 8 little-endian bytes in enumeration order, then the NPY bytes."""
    h = hashlib.sha256(repr(g.mul).encode())
    for s in enumerate_mls(g.order):
        h.update(sum(1 << t for t in oracle_upward_closure(s.minimal_sets, g.order)).to_bytes(8, "little"))
    h.update(npy_bytes)
    return h.hexdigest()


def oracle_contains(system, mask):
    """True iff mask is a member of the family: it contains some minimal set."""
    return any(s & mask == s for s in system.minimal_sets)


def oracle_shift(system, g, x):
    """The family {xA : A in system} under left translation: each minimal set translated point by point."""
    return SetFamily(system.ground_size, tuple(sorted(oracle_translate(g.mul, x, s) for s in system.minimal_sets)))


def oracle_isomorphisms(g, h):
    """Every group isomorphism g -> h as the tuple of images of 0..n-1, by scanning the bijections fixing 0."""
    n = g.order
    maps = []
    for rest in permutations(range(1, n)):
        phi = (0, *rest)
        if all(h.mul[phi[a]][phi[b]] == phi[g.mul[a][b]] for a in range(n) for b in range(n)):
            maps.append(phi)
    return maps


def oracle_lambda_map(systems, image_systems, phi):
    """lambda(phi): for each system A, the index of {phi(C) : C in A} among image_systems.

    phi is a bijection of the points, so it maps the minimal sets of A
    onto the minimal sets of the image; each set is mapped point by point.
    """
    index = {s.minimal_sets: i for i, s in enumerate(image_systems)}
    return [
        index[tuple(sorted(sum(1 << phi[a] for a in bits_of(c)) for c in s.minimal_sets))] for s in systems
    ]


def oracle_relabel(sigma, mask):
    """The sigma-image of a mask, each point a moved to sigma[a]."""
    return sum(1 << sigma[a] for a in bits_of(mask))


def oracle_translation_indices(g, systems):
    """sigma[x][i], the list index of x * systems[i], through a dict of minimal-set tuples."""
    index = {s.minimal_sets: i for i, s in enumerate(systems)}
    return [[index[oracle_shift(s, g, x).minimal_sets] for s in systems] for x in g.elements()]


def is_invariant_mls(g, system):
    """True iff every left translate of the family is the family itself."""
    return all(oracle_shift(system, g, x) == system for x in g.elements())


def quotient_table(orbits, product):
    """The orbit quotient as a table; the constructor re-checks its associativity."""
    if product is None:
        raise ConsistencyError("quotient product is not defined (group not central)")
    reps = [members[0] for members in orbits]
    return SemigroupTable(product, elements=reps, name="orbit-quotient")


def oracle_maximal_subgroup(product, e):
    """The units of the local monoid eSe, from the whole eSe block.

    u is a unit iff uv = e = vu for some v in eSe.  product is a numpy
    table; the block is gathered whole, which is cheap enough up to a few
    thousand elements.
    """
    monoid = np.unique(product[product[e], e])
    block = product[np.ix_(monoid, monoid)]
    return [int(u) for i, u in enumerate(monoid) if ((block[i] == e) & (block[:, i] == e)).any()]


def oracle_shift_closed_maximal_linked_families(g):
    """Maximal invariant linked families by scanning orbit unions.

    Only feasible for tiny groups: every shift-closed monotone family is
    a union of upward-closed shift orbits, so scan all orbit subsets.
    """
    n = g.order
    full = (1 << n) - 1
    orbit_of = {}
    orbits = []
    for s in range(1, full + 1):
        if s in orbit_of:
            continue
        orbit = {oracle_translate(g.mul, x, s) for x in range(n)}
        for m in orbit:
            orbit_of[m] = len(orbits)
        orbits.append(sorted(orbit))

    def family_members(picks):
        base = set()
        for i in picks:
            base.update(orbits[i])
        return oracle_upward_closure(base, n)

    def linked(members):
        return all(a & b for a in members for b in members)

    candidates = []
    for picks in range(1, 1 << len(orbits)):
        chosen = frozenset(i for i in range(len(orbits)) if picks >> i & 1)
        members = family_members(chosen)
        if linked(members):
            candidates.append(frozenset(members))
    maximal = [
        m for m in candidates if not any(o != m and o > m for o in candidates)
    ]
    return sorted({oracle_minimal_sets(m) for m in maximal})


def oracle_self_linked(mul, mask):
    n = len(mul)
    for x in range(n):
        if not mask & oracle_translate(mul, x, mask):
            return False
    return True


def oracle_compatible(mul):
    """compatible[A, B] iff AB^-1 is the whole group, for every pair of subset masks.

    z is in AB^-1 iff zb is in A for some b in B.  With I the 0/1
    indicator matrix of the subsets (row A, column a), that is
    (I[:, mul[z]] @ I.T)[A, B] > 0, so the relation is the AND of those
    matrices over z: one matrix product per element, reading nothing but
    the multiplication table.  The empty set is compatible with nothing.
    """
    mul = np.asarray(mul)
    n = len(mul)
    indicator = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(np.float32)
    compatible = np.ones((1 << n, 1 << n), dtype=bool)
    for row in mul:
        compatible &= indicator[:, row] @ indicator.T > 0
    return compatible


def oracle_smallest_self_linked(mul):
    n = len(mul)
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            if oracle_self_linked(mul, sum(1 << c for c in combo)):
                return k
    raise AssertionError("whole group is always self-linked")


def oracle_principal_ideal(product, a):
    """S^1 a S^1 = {a} + Sa + aS + SaS, straight from the definition."""
    n = len(product)
    left = {product[x][a] for x in range(n)}
    ideal = {a} | left | {product[a][y] for y in range(n)}
    ideal |= {product[xa][y] for xa in left for y in range(n)}
    return frozenset(ideal)


def oracle_minimal_ideal(product):
    """The inclusion-minimal principal ideal, asserted to be unique.

    Every ideal contains a principal ideal, so the minimal ideal is the
    unique inclusion-minimal one among all of them.
    """
    ideals = {oracle_principal_ideal(product, a) for a in range(len(product))}
    minimal = [i for i in ideals if not any(j < i for j in ideals)]
    assert len(minimal) == 1, "minimal ideal is not unique"
    return minimal[0]


def oracle_right_zeros(product):
    n = len(product)
    return [z for z in range(n) if all(product[x][z] == z for x in range(n))]


def oracle_left_zeros(product):
    n = len(product)
    return [z for z in range(n) if all(product[z][x] == z for x in range(n))]


def oracle_central_elements(product):
    n = len(product)
    return [c for c in range(n) if all(product[c][x] == product[x][c] for x in range(n))]


def oracle_symmetric_rows(product):
    """Central-row mask of a numpy table: row c equals column c, compared with the whole transpose."""
    return (product == product.T).all(axis=1)


def oracle_first_asymmetric_cell(product):
    """The row-major first (i, j) with product[i, j] != product[j, i], or None, from the whole transpose."""
    diff = product != product.T
    if not diff.any():
        return None
    return divmod(int(np.argmax(diff)), product.shape[0])


def oracle_direct_product(p1, p2):
    """Product table of the pairs (a, b), indexed a * |p2| + b, cell by cell."""
    n1, n2 = len(p1), len(p2)
    out = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a in range(n1):
        for b in range(n2):
            for c in range(n1):
                for d in range(n2):
                    out[a * n2 + b][c * n2 + d] = p1[a][c] * n2 + p2[b][d]
    return out


def oracle_induced_table(product, members):
    """The product table on a closed subset, its members renumbered 0, 1, ... in ascending order.

    A product outside the subset has no number, so it raises KeyError.
    """
    order = sorted(members)
    pos = {v: i for i, v in enumerate(order)}
    return [[pos[int(product[a][b])] for b in order] for a in order]


def _refine_colors(t) -> list[int]:
    """Iterated invariant refinement; isomorphic elements share colors."""
    p = t.product
    n = t.order
    colors = [1 if p[x, x] == x else 0 for x in range(n)]
    for _ in range(n):
        sigs = []
        for x in range(n):
            row = sorted((colors[y], colors[int(p[x, y])], colors[int(p[y, x])]) for y in range(n))
            sigs.append((colors[x], tuple(row)))
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def find_isomorphism(t1, t2) -> list[int] | None:
    """A product-preserving bijection t1 -> t2, or None if none exists.

    Backtracking over elements grouped by refined invariant colors; the
    final candidate map is verified on the full tables.
    """
    n = t1.order
    if n != t2.order:
        return None
    if n > ISO_ORDER_LIMIT:
        raise CapacityError(f"isomorphism search is limited to order {ISO_ORDER_LIMIT}")
    if n == 0:
        return []
    c1 = _refine_colors(t1)
    c2 = _refine_colors(t2)
    if sorted(c1) != sorted(c2):
        return None
    by_color: dict[int, list[int]] = {}
    for y, c in enumerate(c2):
        by_color.setdefault(c, []).append(y)
    order = sorted(range(n), key=lambda x: (len(by_color[c1[x]]), c1[x], x))
    p1, p2 = t1.product, t2.product
    mapping = [-1] * n
    used = [False] * n

    def consistent(x: int, y: int) -> bool:
        for a in range(n):
            fa = mapping[a]
            if fa < 0:
                continue
            img = mapping[int(p1[a, x])]
            if img >= 0 and p2[fa, y] != img:
                return False
            img = mapping[int(p1[x, a])]
            if img >= 0 and p2[y, fa] != img:
                return False
        img = mapping[int(p1[x, x])]
        if img >= 0 and p2[y, y] != img:
            return False
        return True

    def search(i: int) -> bool:
        if i == n:
            return all(
                p2[mapping[a], mapping[b]] == mapping[int(p1[a, b])]
                for a in range(n)
                for b in range(n)
            )
        x = order[i]
        for y in by_color[c1[x]]:
            if used[y] or not consistent(x, y):
                continue
            mapping[x] = y
            used[y] = True
            if search(i + 1):
                return True
            mapping[x] = -1
            used[y] = False
        return False

    if search(0):
        return list(mapping)
    return None


def traced_peak(f) -> int:
    """The tracemalloc peak, in bytes, of one call f(), traced from its start."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def table_digest(product) -> str:
    """sha256 of str(shape), then the rows as little-endian int32."""
    h = hashlib.sha256(str(product.shape).encode())
    h.update(np.ascontiguousarray(product, dtype="<i4").tobytes())
    return h.hexdigest()


def fresh_interpreter(args, env=None, **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run of a new interpreter on args, with this checkout's src and tests first on PYTHONPATH.

    So the code can import superx and these oracles.  env maps variable
    names to the values that replace this process's ones; a value of None
    removes the variable.  kwargs go to subprocess.run.
    """
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    child = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    for name, value in (env or {}).items():
        if value is None:
            child.pop(name, None)
        else:
            child[name] = value
    return subprocess.run([sys.executable, *args], env=child, **kwargs)
