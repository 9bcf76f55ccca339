"""Reference values embedded for the verification suite.

These are the published counts and tables the tool reproduces; every
verify command compares its computed results against the entries here.
"""

from __future__ import annotations

from .c5 import T17_NAMES

# |lambda(X)| and orbit counts |lambda(X)/X| by ground size (cyclic groups).
LAMBDA_COUNTS = {1: 1, 2: 2, 3: 4, 4: 12, 5: 81, 6: 2646}
LAMBDA_ORBIT_COUNTS = {1: 1, 2: 1, 3: 2, 4: 3, 5: 17, 6: 447}
# Next term of the monotone self-dual count, for the opt-in ground size.
LAMBDA_COUNT_7 = 1_422_564

# Smallest self-linked subset size for the 24 catalog groups of order <= 13.
SL_TABLE = {
    "C2": 2,
    "C3": 2,
    "C4": 3,
    "C2xC2": 3,
    "C5": 3,
    "C6": 3,
    "D6": 4,
    "C7": 3,
    "C8": 4,
    "C2xC4": 4,
    "D8": 4,
    "Q8": 4,
    "C2xC2xC2": 5,
    "C9": 4,
    "C3xC3": 4,
    "C10": 4,
    "D10": 4,
    "C11": 4,
    "C12": 4,
    "C2xC6": 5,
    "D12": 5,
    "A4": 5,
    "C3:C4": 5,
    "C13": 4,
}

# Number of maximal invariant linked systems for the 13 groups of order <= 8.
INVARIANT_COUNTS = {
    "C2": 1,
    "C3": 1,
    "C4": 1,
    "C2xC2": 1,
    "C5": 1,
    "D6": 1,
    "C6": 2,
    "C7": 3,
    "C2xC2xC2": 1,
    "D8": 2,
    "C2xC4": 4,
    "C8": 8,
    "Q8": 8,
}

# Equivalence-class counts s for the even groups with half-size
# self-linked sets; the invariant-system count is 2^s there.
SIM_CLASS_COUNTS = {"C6": 1, "C8": 3, "C2xC4": 2, "D8": 1, "Q8": 3}

# Structure of the 81-element system semigroup over C5.
C5_IDEMPOTENT_NAMES = ("U", "Z", "Λ4", "Λ", "2Λ")
C5_CENTRAL_NAMES = ("U", "U+1", "U+2", "U-2", "U-1", "Z")
C5_SQRT_IDEMPOTENT_COUNT = 41
C5_MINIMAL_IDEAL_NAMES = ("Z",)

# Core of the published 17x17 representative table: explicit entries for
# the nine non-trivial rows/columns; the remaining cells follow from U
# being the unit, Z the zero, and F o aΘ = F o aΓ = Z off the one-point
# systems.  Orientation: ROW o COLUMN.
_T17_CORE_COLUMNS = ("Λ4", "Λ", "Δ", "Λ3", "-Λ3", "2Λ", "2Δ", "2Λ3", "-2Λ3")
_T17_CORE_ROWS = {
    "Λ4": ("Λ4", "Λ", "Λ", "Λ", "Λ", "2Λ", "2Λ", "2Λ", "2Λ"),
    "Λ": ("Λ", "Λ", "Λ", "Λ", "Λ", "Z", "Z", "Z", "Z"),
    "Δ": ("Δ", "Λ", "Λ", "Λ", "Λ", "2Θ", "2Θ", "2Θ", "2Θ"),
    "Λ3": ("Λ3", "Λ", "Λ", "Λ", "Λ", "2Θ+2", "2Θ+2", "2Θ+2", "2Θ+2"),
    "-Λ3": ("-Λ3", "Λ", "Λ", "Λ", "Λ", "2Θ-2", "2Θ-2", "2Θ-2", "2Θ-2"),
    "2Λ": ("2Λ", "Z", "Z", "Z", "Z", "2Λ", "2Λ", "2Λ", "2Λ"),
    "2Δ": ("2Δ", "Θ", "Θ", "Θ", "Θ", "2Λ", "2Λ", "2Λ", "2Λ"),
    "2Λ3": ("2Λ3", "Θ-1", "Θ-1", "Θ-1", "Θ-1", "2Λ", "2Λ", "2Λ", "2Λ"),
    "-2Λ3": ("-2Λ3", "Θ+1", "Θ+1", "Θ+1", "Θ+1", "2Λ", "2Λ", "2Λ", "2Λ"),
    "Θ": ("Θ", "Θ", "Θ", "Θ", "Θ", "Z", "Z", "Z", "Z"),
    "2Θ": ("2Θ", "Z", "Z", "Z", "Z", "2Θ", "2Θ", "2Θ", "2Θ"),
    "Γ": ("Γ", "Θ+1", "Θ+1", "Θ+1", "Θ+1", "2Θ+2", "2Θ+2", "2Θ+2", "2Θ+2"),
    "-Γ": ("-Γ", "Θ-1", "Θ-1", "Θ-1", "Θ-1", "2Θ-2", "2Θ-2", "2Θ-2", "2Θ-2"),
    "2Γ": ("2Γ", "Θ-1", "Θ-1", "Θ-1", "Θ-1", "2Θ+2", "2Θ+2", "2Θ+2", "2Θ+2"),
    "-2Γ": ("-2Γ", "Θ+1", "Θ+1", "Θ+1", "Θ+1", "2Θ-2", "2Θ-2", "2Θ-2", "2Θ-2"),
}

_THETA_GAMMA_COLUMNS = ("Θ", "2Θ", "Γ", "-Γ", "2Γ", "-2Γ")


def expected_t17_table() -> dict[tuple[str, str], str]:
    """The full 289-cell expected table, keyed by (row name, column name)."""
    table: dict[tuple[str, str], str] = {}
    for row in T17_NAMES:
        for col in T17_NAMES:
            if row == "U":
                table[(row, col)] = col
            elif col == "U":
                table[(row, col)] = row
            elif row == "Z" or col == "Z":
                table[(row, col)] = "Z"
            elif col in _THETA_GAMMA_COLUMNS:
                table[(row, col)] = "Z"
            else:
                table[(row, col)] = _T17_CORE_ROWS[row][_T17_CORE_COLUMNS.index(col)]
    return table


CATALOG_LE8 = tuple(INVARIANT_COUNTS)
