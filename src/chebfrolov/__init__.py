"""Chebyshev-Frolov lattice point enumeration and lattice-rule cubature.

Enumerates the points of the block-recursive Chebyshev lattices (dimension
d = 2**n) inside arbitrary axis-parallel boxes, as a count, a constant-memory
stream or numpy batches, and uses them as nodes for deterministic and
randomized equal-weight cubature over the centered unit cube.  A brute-force
oracle and golden count tables back everything up.

The names of :mod:`chebfrolov.verify` are re-exported on first access
(PEP 562), so ``import chebfrolov`` does not import that module; the
golden table's (:mod:`chebfrolov.golden`) are imported with the package.
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
from .golden import CountRecord, load_golden_table
from .lattice import (
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


def __getattr__(name: str) -> object:
    """The names of ``__all__`` from :mod:`chebfrolov.verify`, imported on first access."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify

    value = globals()[name] = getattr(verify, name)
    return value


__version__ = "0.1.0"

__all__ = [
    "Box",
    "ConsistencyError",
    "CountRecord",
    "CubatureSpec",
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
