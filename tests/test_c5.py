from __future__ import annotations

import numpy as np
import pytest

from superx import c5, superext
from superx.bitsets import mask_of
from superx.c5 import (
    T17_NAMES,
    affine_image,
    c5_named_catalog,
    canonical_names,
    render_name,
)
from superx.errors import ConsistencyError
from superx.expected import INVARIANT_COUNTS, LAMBDA_COUNT_7, LAMBDA_COUNTS, LAMBDA_ORBIT_COUNTS
from superx.families import (
    enumerate_mls,
    majority_family,
    principal_ultrafilter,
)
from superx.groups import build_group
from superx.superext import orbit_quotient, system_counts


def test_base_systems_are_the_documented_generators():
    cat = c5_named_catalog()
    assert cat["Δ"].minimal_sets == tuple(sorted([mask_of([0, 2]), mask_of([0, 3]), mask_of([2, 3])]))
    assert cat["Λ4"].minimal_sets == tuple(
        sorted([mask_of([0, 1]), mask_of([0, 2]), mask_of([0, 3]), mask_of([0, 4]), mask_of([1, 2, 3, 4])])
    )
    g = build_group("C5")
    assert cat["U"] == principal_ultrafilter(g, 0)
    assert cat["Z"] == majority_family(g)


def test_catalog_rejects_a_base_that_is_not_maximal_linked(monkeypatch):
    # linked, but holds neither {0,2} nor its complement {1,3,4}
    monkeypatch.setattr(c5, "_BASE_GENERATORS", {"X": (mask_of([0, 1]),)})
    with pytest.raises(ConsistencyError, match="not equal to its transversal"):
        c5_named_catalog()


def test_catalog_members_are_self_dual():
    cat = c5_named_catalog()
    for name in T17_NAMES:
        fam = cat[name]
        assert fam.transversal() == fam


def test_named_symmetries():
    cat = c5_named_catalog()
    # the four-point star is fixed by every multiplier
    for a in (2, 3, 4):
        assert affine_image(cat["Λ4"], a, 0) == cat["Λ4"]
    # these two are fixed by negation
    assert affine_image(cat["Λ"], 4, 0) == cat["Λ"]
    assert affine_image(cat["Θ"], 4, 0) == cat["Θ"]
    # doubling images carry the documented names
    assert affine_image(cat["Λ"], 2, 0) == cat["2Λ"]
    assert affine_image(cat["Δ"], 2, 0) == cat["2Δ"]
    # x -> 0*x + 1 is not a bijection of Z5
    with pytest.raises(ConsistencyError, match="invertible mod 5"):
        affine_image(cat["Λ"], 0, 1)
    assert cat["2Λ"].minimal_sets == tuple(
        sorted(
            [mask_of([0, 4]), mask_of([0, 1]), mask_of([1, 2, 4]), mask_of([0, 2, 3]), mask_of([1, 3, 4])]
        )
    )


def test_render_name_grammar():
    assert render_name("Δ", 1, 0) == "Δ"
    assert render_name("Δ", 2, 0) == "2Δ"
    assert render_name("Λ3", 4, 0) == "-Λ3"
    assert render_name("Λ3", 3, 0) == "-2Λ3"
    assert render_name("Θ", 2, 2) == "2Θ+2"
    assert render_name("Θ", 1, 4) == "Θ-1"
    assert render_name("Γ", 1, 3) == "Γ-2"


def test_canonical_names_cover_all_81_systems():
    names = canonical_names()
    systems = enumerate_mls(5)
    assert len(names) == 81
    assert {s.minimal_sets for s in systems} == set(names)
    # the zero is the single one-element orbit
    base = [n for n in names.values() if n == "Z"]
    assert base == ["Z"]


def test_t17_projects_one_per_orbit(lam_table):
    table = lam_table("C5")
    systems = table.elements
    orbit_of, orbits, _ = orbit_quotient(table)
    assert len(orbits) == system_counts(build_group("C5"))[1] == 17
    index = {s.minimal_sets: i for i, s in enumerate(systems)}
    cat = c5_named_catalog()
    reps = [orbit_of[index[cat[name].minimal_sets]] for name in T17_NAMES]
    assert sorted(reps) == list(range(len(orbits)))


def test_prime_burnside_ties_the_reference_counts():
    """Every x != e generates C_p, so Fix(x) = inv(C_p) and p * |lambda/C_p| = |lambda| + (p - 1) * inv."""
    for p in (3, 5):
        assert p * LAMBDA_ORBIT_COUNTS[p] == LAMBDA_COUNTS[p] + (p - 1) * INVARIANT_COUNTS[f"C{p}"], p
    # the ground-seven orbit count pinned below, derived instead of computed
    assert divmod(LAMBDA_COUNT_7 + 6 * INVARIANT_COUNTS["C7"], 7) == (203_226, 0)


def test_ground_seven_count(monkeypatch):
    """The full ground-7 count, and Burnside on the translates it was read off: Fix = [1,422,564, 3 x 6].

    Word 0 fixes a system, so Fix(x) counts the rows whose word 0 equals their translate's.
    """
    translate = superext._translated
    fixed = [LAMBDA_COUNT_7]  # the identity, which the count does not translate

    def counted(g, x, words):
        moved = translate(g, x, words)
        fixed.append(int(np.count_nonzero(moved == words[:, 0])))
        return moved

    monkeypatch.setattr(superext, "_translated", counted)
    assert system_counts(build_group("C7"), allow_large=True) == (1_422_564, 203_226)
    assert fixed == [LAMBDA_COUNT_7] + [INVARIANT_COUNTS["C7"]] * 6 == [1_422_564] + [3] * 6
    assert divmod(sum(fixed), 7) == (203_226, 0)
