"""The Chebyshev polynomial, the Vandermonde matrix of its permuted roots and
the dense generator.

The package never builds any of them: the lattice is built from the ladder
alone.  The tests check the roots, the ladder and the walker against them.
"""

import math

import numpy as np

from chebfrolov import DiagLadder, Level
from chebfrolov.lattice import chebyshev_root


def rescaled_chebyshev(d: int, x: float) -> float:
    """Evaluate 2*cos(d*arccos(x/2)) for |x| <= 2 (monic integer polynomial in x)."""
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    if abs(x) > 2.0:
        raise ValueError(f"argument {x} outside [-2, 2]")
    return 2.0 * math.cos(d * math.acos(0.5 * x))


def build_vandermonde(level: Level) -> np.ndarray:
    """Vandermonde matrix of the permuted roots, powers 0..d-1 across columns."""
    d = level.d
    roots = np.array([chebyshev_root(level.n, k) for k in range(1, d + 1)])
    return np.vander(roots, N=d, increasing=True)


def build_generator_matrix(level: Level, ladder: DiagLadder) -> np.ndarray:
    """Dense 2**n x 2**n generator built by the block recursion."""
    if ladder.depth < level.n:
        raise ValueError(f"ladder depth {ladder.depth} < level {level.n}")
    a = np.ones((1, 1))
    for L in range(level.n):
        diag = np.asarray(ladder.levels[L])
        scaled = diag[:, None] * a
        a = np.block([[a, scaled], [a, -scaled]])
    return a
