"""The Chebyshev polynomial, the Vandermonde matrix of its permuted roots,
the dense generator, the recursive reference enumerator and the random
boxes the tests draw.

The package never builds any of them: the lattice is built from the ladder
alone, and one compiled walker enumerates it.  The tests check the roots,
the ladder and the walker against them.
"""

import math
from typing import Sequence

import numpy as np

from chebfrolov import Box, DiagLadder, LatticePoint, Level, apply_generator, build_diag_ladder
from chebfrolov.lattice import chebyshev_root

#: How far past its rounded bounds :func:`recursive_enumerate` looks, per
#: unit of 1 + max|corner|: 4 times the count slack of ``_walk.c`` (32 times
#: the fill slack), so that equal results check the walker's constants
#: instead of repeating them.  Every candidate is then decided on its image.
_SLACK = 2.0**-45


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


def random_box(rng, d: int, span: float = 5.0) -> Box:
    """A box of dimension d whose corners are sorted pairs of ``rng.uniform(-span, span)``."""
    corners = [sorted((rng.uniform(-span, span), rng.uniform(-span, span))) for _ in range(d)]
    return Box(tuple(c[0] for c in corners), tuple(c[1] for c in corners))


def _interval_mean(level: int, values: Sequence[float]) -> tuple[float, ...]:
    """Componentwise mean of the two halves of a length-2**(level+1) vector."""
    half = 1 << level
    return tuple((values[t] + values[half + t]) / 2.0 for t in range(half))


def _clamp_bounds(
    level: int,
    anchor: Sequence[float],
    lower: Sequence[float],
    upper: Sequence[float],
    ladder: DiagLadder,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Bounds for the second half-block image once the first contributes ``anchor``.

    For the 2**(level+1)-dimensional box [lower, upper] and a fixed image
    ``anchor`` of the first half-block, a second half-block image y is
    feasible iff lo <= y <= hi componentwise, where

        lo = max(lower_1 - anchor, anchor - upper_2) / D,
        hi = min(upper_1 - anchor, anchor - lower_2) / D,

    with subscripts naming corner halves and D the ladder diagonal at
    ``level``.  Whenever lower <= upper and anchor sits between the half
    means, lo <= hi (the slice is nonempty).
    """
    half = 1 << level
    dl = ladder.levels[level]
    lo = []
    hi = []
    for t in range(half):
        a = anchor[t]
        lo.append(max(lower[t] - a, a - upper[half + t]) / dl[t])
        hi.append(min(upper[t] - a, a - lower[half + t]) / dl[t])
    return tuple(lo), tuple(hi)


def recursive_enumerate(level: Level, box: Box) -> list[LatticePoint]:
    """Reference enumeration by the explicit divide-and-conquer recursion.

    The first half-block k1 ranges over the points between the half-means of
    the corners; for each, its image ``apply_generator(ladder, k1)`` fixes
    the clamped bounds of the second half-block.  Every range reaches
    ``_SLACK * (1 + max|corner|)`` past its rounded bounds, and a candidate
    is kept iff its image lies in the box.  It shares the walker module's
    ``merge()`` with the compiled traversal, through the anchors and images
    :func:`apply_generator` makes, but nothing else: its bounds, its slack
    (``_SLACK``, 2**-45), its order (whole half-blocks, recursively) and its
    membership filter (every candidate's image) are its own.  It returns the
    same list as streaming into a list, bit-for-bit, at any level.
    """
    if box.dimension != level.d:
        raise ValueError(f"box dimension {box.dimension} != lattice dimension {level.d}")
    ladder = build_diag_ladder(level)
    slack = _SLACK * (1.0 + max(map(abs, box.lower + box.upper)))
    points = (
        LatticePoint(k, apply_generator(ladder, k))
        for k in _recursive_ks(level.n, box.lower, box.upper, ladder, slack)
    )
    return [
        p for p in points if all(lo <= x <= hi for x, lo, hi in zip(p.x, box.lower, box.upper))
    ]


def _recursive_ks(n, lower, upper, ladder, slack):
    if n == 0:
        lo, hi = math.ceil(lower[0] - slack), math.floor(upper[0] + slack)
        return [(k,) for k in range(lo, hi + 1)]
    L = n - 1
    out = []
    for k1 in _recursive_ks(L, _interval_mean(L, lower), _interval_mean(L, upper), ladder, slack):
        lo2, hi2 = _clamp_bounds(L, apply_generator(ladder, k1), lower, upper, ladder)
        out.extend(k1 + k2 for k2 in _recursive_ks(L, lo2, hi2, ladder, slack))
    return out
