"""Exact integral cohomology of toroidal orbifolds (S^1)^n / (Z/p).

The core pipeline turns a lattice type (r, s, t) — or an explicit integer
matrix of prime order, via the classifier — into the per-degree table
H^k = Z^a + (Z/p)^b of the torus quotient, together with equivariant
cohomology, fixed-point structure and field Betti numbers.  Everything is
exact integer arithmetic; two independent brute-force oracles (rational
exterior-power invariants and honest simplicial quotients) double-check the
formulas at desk scale.
"""

from .cohomology import (
    CohomologyTable,
    FixedPointStructure,
    betti_over_field,
    equivariant_cohomology,
    fixed_point_set,
    pair_torsion_series,
    quotient_cohomology,
    torsion_from_pair,
    torsion_series,
)
from .classify import (
    classify,
    cohomology_from_matrix,
    verify_order,
)
from .errors import ConsistencyError
from .lattice import LatticeType, is_prime
from .oracle import (
    EquivariantModel,
    SimplicialAction,
    SimplicialComplex,
    barycentric_subdivide,
    build_equivariant_torus,
    is_regular,
    quotient_complex,
    rational_alpha_oracle,
    run_oracle_case,
)
from .series import AlphaSeries
from .snf import AbelianGroupStructure, IntMatrix

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupStructure",
    "AlphaSeries",
    "CohomologyTable",
    "ConsistencyError",
    "EquivariantModel",
    "FixedPointStructure",
    "IntMatrix",
    "LatticeType",
    "SimplicialAction",
    "SimplicialComplex",
    "barycentric_subdivide",
    "betti_over_field",
    "build_equivariant_torus",
    "classify",
    "cohomology_from_matrix",
    "equivariant_cohomology",
    "fixed_point_set",
    "is_prime",
    "is_regular",
    "pair_torsion_series",
    "quotient_cohomology",
    "quotient_complex",
    "rational_alpha_oracle",
    "run_oracle_case",
    "torsion_from_pair",
    "torsion_series",
    "verify_order",
]
