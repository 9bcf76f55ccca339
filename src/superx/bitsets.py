"""Bitmask helpers for subsets of a ground set of at most 16 points.

A subset of {0, ..., n-1} is an int whose bit i is set iff point i is in
the subset.  Families of subsets are likewise packed into a single int
indexed by subset value, on at most 12 points; one shift of the whole
bitmap per point closes a family upward (the subset-lattice zeta transform).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
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


def subsets_of_size(n: int, k: int) -> list[int]:
    """All k-element subsets of {0..n-1} as masks, ascending."""
    return sorted(mask_of(c) for c in combinations(range(n), k))


@lru_cache(maxsize=None)
def _points_missing(n: int) -> tuple[int, ...]:
    """missing[b] = family bitmap of the subsets of {0..n-1} that miss point b.

    The bitmap repeats 2^b ones and 2^b zeros from bit 0 up: all ones
    divided by the repunit of that block, times the run of ones.
    """
    if n > 12:
        raise CapacityError("family bitmaps are limited to n <= 12")
    full = (1 << (1 << n)) - 1
    return tuple(full // ((1 << (2 << b)) - 1) * ((1 << (1 << b)) - 1) for b in range(n))


def up_closure(family_bitmap: int, n: int) -> int:
    """The family bitmap of every superset of a member: the upward closure.

    Adding point b to the members that miss it moves their bits up by 2^b.
    One pass over the points is enough: once b is done, adding a later
    point to a member keeps the family closed under adding b.
    """
    for b, missing in enumerate(_points_missing(n)):
        family_bitmap |= (family_bitmap & missing) << (1 << b)
    return family_bitmap


def minimal_members(up: int, n: int) -> list[int]:
    """Inclusion-minimal members of an upward-closed family bitmap, ascending.

    In a closed family a member is minimal iff dropping any one of its
    points leaves the family.  An unclosed bitmap needs ``up_closure`` first.
    """
    above = 0  # the sets that are a member plus one more point
    for b, missing in enumerate(_points_missing(n)):
        above |= (up & missing) << (1 << b)
    return list(iter_bits(up & ~above))
