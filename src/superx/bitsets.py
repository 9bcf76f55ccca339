"""Bitmask helpers for subsets of a ground set of at most 16 points.

A subset of {0, ..., n-1} is an int whose bit i is set iff point i is in
the subset.  Families of subsets are likewise packed into a single int
indexed by subset value, which keeps the hot loops branch-free.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .errors import CapacityError


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of set bits in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(points) -> int:
    out = 0
    for p in points:
        out |= 1 << p
    return out


def subsets_of_size(n: int, k: int) -> Iterator[int]:
    """All k-element subsets of {0..n-1} as masks, ascending (Gosper)."""
    if k == 0:
        yield 0
        return
    if k > n:
        return
    v = (1 << k) - 1
    limit = 1 << n
    while v < limit:
        yield v
        low = v & -v
        ripple = v + low
        v = ripple | ((v ^ ripple) >> 2) // low


@lru_cache(maxsize=None)
def superset_closures(n: int) -> tuple[int, ...]:
    """closures[s] = family bitmap of all supersets of s (including s)."""
    if n > 12:
        raise CapacityError("superset closure tables are limited to n <= 12")
    size = 1 << n
    full = size - 1
    closures = [0] * size
    for s in range(size):
        bm = 0
        t = s
        while True:
            bm |= 1 << t
            if t == full:
                break
            t = (t + 1) | s
        closures[s] = bm
    return tuple(closures)


@lru_cache(maxsize=None)
def subset_closures(n: int) -> tuple[int, ...]:
    """closures[s] = family bitmap of all subsets of s (including s)."""
    if n > 12:
        raise CapacityError("subset closure tables are limited to n <= 12")
    size = 1 << n
    closures = [0] * size
    for s in range(size):
        bm = 0
        t = s
        while True:
            bm |= 1 << t
            if t == 0:
                break
            t = (t - 1) & s
        closures[s] = bm
    return tuple(closures)


def minimal_members(family_bitmap: int, n: int) -> list[int]:
    """Inclusion-minimal subsets in a family bitmap, ascending."""
    sub = subset_closures(n)
    out = []
    for s in iter_bits(family_bitmap):
        strict = sub[s] ^ (1 << s)
        if not family_bitmap & strict:
            out.append(s)
    return out
