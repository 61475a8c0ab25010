"""Chebyshev-Frolov lattice point enumeration and lattice-rule cubature.

Enumerates the points of the block-recursive Chebyshev lattices (dimension
d = 2**n) inside arbitrary axis-parallel boxes, as a count, a constant-memory
stream or numpy batches, and uses them as nodes for deterministic and
randomized equal-weight cubature over the centered unit cube.  A brute-force
oracle and golden count tables back everything up.

The package names the enumerators, the cubature rule and the types they
take, plus :func:`det_magnitude`, and :func:`load_golden_table` and
:func:`oracle_enumerate`, imported from :mod:`chebfrolov.verify` on first
access (PEP 562): ``import chebfrolov`` loads neither the table nor the
checks.  The other checks, the records and the roots are imported from
their own modules.
"""

from .cubature import (
    ConsistencyError,
    CubatureSpec,
    Integrand,
    IntegrationResult,
    RandomShift,
    integrate,
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
from .lattice import DiagLadder, Level, build_diag_ladder, det_magnitude


def __getattr__(name: str) -> object:
    """``load_golden_table`` and ``oracle_enumerate``, imported from ``verify`` on first access."""
    if name not in ("load_golden_table", "oracle_enumerate"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify

    value = globals()[name] = getattr(verify, name)
    return value


__version__ = "0.1.0"

__all__ = [
    "Box",
    "ConsistencyError",
    "CubatureSpec",
    "DiagLadder",
    "Integrand",
    "IntegrationResult",
    "LatticePoint",
    "Level",
    "RandomShift",
    "apply_generator",
    "build_diag_ladder",
    "count_points",
    "det_magnitude",
    "enumerate_batches",
    "enumerate_stream",
    "integrate",
    "load_golden_table",
    "oracle_enumerate",
    "randomized_box",
    "sample_shift",
    "standard_box",
]
