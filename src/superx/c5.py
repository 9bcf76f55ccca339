"""Named systems over the five-point cyclic group.

Eight base systems have proper names; all 81 systems on C5 arise from a
17-element set of representatives by adding a constant shift b, written
"name+b".  Representatives themselves are affine images a*L+b of the
base systems under x -> a*x+b mod 5, with a in {1,2,-2,-1} rendered as
"", "2", "-2", "-" prefixes.
"""

from __future__ import annotations

from .bitsets import mask_of, subsets_of_size
from .errors import ConsistencyError
from .families import SetFamily, generate_family


def _sets(*point_lists) -> tuple[int, ...]:
    return tuple(sorted(mask_of(pts) for pts in point_lists))


_BASE_GENERATORS = {
    "U": _sets([0]),
    "Z": tuple(subsets_of_size(5, 3)),
    "Λ4": _sets([0, 1], [0, 2], [0, 3], [0, 4], [1, 2, 3, 4]),
    "Λ": _sets([0, 2], [0, 3], [1, 2, 3], [0, 1, 4], [2, 3, 4]),
    "Δ": _sets([0, 2], [0, 3], [2, 3]),
    "Λ3": _sets([0, 2], [0, 3], [0, 4], [2, 3, 4]),
    "Θ": _sets([1, 4], [0, 1, 2], [0, 1, 3], [1, 2, 3], [0, 2, 4], [0, 3, 4], [2, 3, 4]),
    "Γ": _sets([0, 2], [0, 4], [0, 1, 3], [1, 2, 4], [2, 3, 4]),
}

_MULTIPLIER_PREFIX = {1: "", 2: "2", 3: "-2", 4: "-"}

T17_NAMES = (
    "U",
    "Z",
    "Λ4",
    "Λ",
    "2Λ",
    "Δ",
    "2Δ",
    "Λ3",
    "-Λ3",
    "2Λ3",
    "-2Λ3",
    "Θ",
    "2Θ",
    "Γ",
    "-Γ",
    "2Γ",
    "-2Γ",
)


def affine_image(system: SetFamily, a: int, b: int) -> SetFamily:
    """Image under x -> a*x + b mod 5; a bijection, so again a system."""
    if a % 5 == 0:
        raise ConsistencyError("multiplier must be invertible mod 5")
    sets = []
    for s in system.minimal_sets:
        img = 0
        for x in range(5):
            if s >> x & 1:
                img |= 1 << ((a * x + b) % 5)
        sets.append(img)
    return SetFamily(5, tuple(sorted(sets)))


def _base_system(name: str) -> SetFamily:
    family = generate_family(5, _BASE_GENERATORS[name])
    if not family.is_maximal_linked():
        raise ConsistencyError("family is not equal to its transversal")
    return family


def render_name(base: str, a: int = 1, b: int = 0) -> str:
    a %= 5
    b %= 5
    name = _MULTIPLIER_PREFIX[a] + base if a != 1 else base
    if b == 0:
        return name
    if b in (1, 2):
        return f"{name}+{b}"
    return f"{name}-{5 - b}"


def c5_named_catalog() -> dict[str, SetFamily]:
    """Every named system: the eight base names plus all affine images.

    Different names can denote the same system (the images of Λ4 under
    any multiplier coincide, Λ = -Λ and Θ = -Θ); each valid name maps to
    its system, so lookups follow the written grammar.
    """
    catalog: dict[str, SetFamily] = {}
    for base in _BASE_GENERATORS:
        root = _base_system(base)
        for a in (1, 2, 3, 4):
            for b in range(5):
                catalog[render_name(base, a, b)] = affine_image(root, a, b)
    return catalog


def canonical_names() -> dict[tuple[int, ...], str]:
    """One canonical name per system on C5 (81 entries).

    Each system is rep+b for a unique representative and shift; the
    representative names follow the 17-name list.
    """
    catalog = c5_named_catalog()
    out: dict[tuple[int, ...], str] = {}
    for rep in T17_NAMES:
        for b in range(5):
            name = render_name(rep, 1, b)
            out.setdefault(catalog[name].minimal_sets, name)
    if len(out) != 81:
        raise ConsistencyError("canonical naming did not cover the 81 systems")
    return out
