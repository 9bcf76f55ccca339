"""Superextension semigroups of small finite groups.

Enumerate maximal linked systems, evaluate the extended product, build
Cayley tables, and analyze self-linked sets and invariant systems.
"""

import os
import sys

# BLAS on one thread: OpenBLAS reads this once, as numpy loads, and with the
# default pool its idle workers spin through every start-up for a GEMM that
# is faster on one thread.  A value the caller set wins; once numpy is
# loaded, setting it would change nothing, so the environment is left alone.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import CapacityError, ConsistencyError, GroupParseError, SuperxError
from .families import (
    SetFamily,
    enumerate_mls,
    generate_family,
    majority_family,
    principal_ultrafilter,
)
from .groups import FiniteGroup, build_group, element_order, is_odd_group
from .semigroups import SemigroupTable
from .superext import build_lambda_table, circ, orbit_quotient

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConsistencyError",
    "FiniteGroup",
    "GroupParseError",
    "SemigroupTable",
    "SetFamily",
    "SuperxError",
    "build_group",
    "build_lambda_table",
    "circ",
    "element_order",
    "enumerate_mls",
    "generate_family",
    "is_odd_group",
    "majority_family",
    "orbit_quotient",
    "principal_ultrafilter",
    "__version__",
]
