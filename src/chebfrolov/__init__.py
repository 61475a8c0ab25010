"""Chebyshev-Frolov lattice point enumeration and lattice-rule cubature.

Enumerates the points of the block-recursive Chebyshev lattices (dimension
d = 2**n) inside arbitrary axis-parallel boxes, as a count, a constant-memory
stream or numpy batches, and uses them as nodes for deterministic and
randomized equal-weight cubature over the centered unit cube.  A brute-force
oracle and golden count tables back everything up.
"""

from .cubature import (
    ConsistencyError,
    CubatureSpec,
    Integrand,
    IntegrationResult,
    RandomShift,
    integrate,
    map_to_unit,
    randomized_box,
    sample_shift,
    standard_box,
)
from .enumeration import (
    Box,
    LatticePoint,
    apply_generator,
    count_points,
    enumerate_batches,
    enumerate_stream,
)
from .lattice import (
    DEFAULT_MAX_LEVEL,
    DiagLadder,
    Level,
    build_diag_ladder,
    build_generator_matrix,
    build_vandermonde,
    chebyshev_root,
    det_magnitude,
    rescaled_chebyshev,
    root_permutation,
)
from .verify import (
    CountRecord,
    DoubleBoxCheck,
    TableCheck,
    UnimodularCheck,
    double_box_check,
    load_golden_table,
    oracle_enumerate,
    reproduce_table,
    unimodular_check,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "ConsistencyError",
    "CountRecord",
    "CubatureSpec",
    "DEFAULT_MAX_LEVEL",
    "DiagLadder",
    "DoubleBoxCheck",
    "Integrand",
    "IntegrationResult",
    "LatticePoint",
    "Level",
    "RandomShift",
    "TableCheck",
    "UnimodularCheck",
    "apply_generator",
    "build_diag_ladder",
    "build_generator_matrix",
    "build_vandermonde",
    "chebyshev_root",
    "count_points",
    "det_magnitude",
    "double_box_check",
    "enumerate_batches",
    "enumerate_stream",
    "integrate",
    "load_golden_table",
    "map_to_unit",
    "oracle_enumerate",
    "randomized_box",
    "reproduce_table",
    "rescaled_chebyshev",
    "root_permutation",
    "sample_shift",
    "standard_box",
    "unimodular_check",
]
