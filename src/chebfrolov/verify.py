"""Independent correctness machinery.

Four routes confirm the enumeration: a brute-force oracle that inverts the
dense generator and tests every integer vector in a bounding box, a
recursive reference that applies the half-mean and clamp split of the box
directly (not the compiled walker), a two-scale consistency check that
enumerates the double-scale box and filters, and regression against an
embedded table of known-good node counts for the standard cubature boxes
(data/golden_counts.csv, columns d, log2N, count).

The oracle, the reference and the filter keep a point iff its
:func:`apply_generator` image x has ``lower <= x <= upper``, as the
enumerators do.

Only the oracle (with its row-wise image tree ``_images``) loads numpy.
The two-scale check filters the walker's fills in Python, and the
unimodular check solves its d <= 8 system by Gaussian elimination in
Python, so the CLI's ``verify`` runs without numpy.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from functools import lru_cache
from importlib import resources
from typing import NamedTuple, Sequence

from .cubature import CubatureSpec, standard_box
from .enumeration import _STREAM_ROWS, Box, LatticePoint, _fill, _prepare, apply_generator
from .enumeration import count_points
from .lattice import DiagLadder, Level, build_diag_ladder, build_generator_matrix, chebyshev_root

#: The brute-force oracle refuses levels above this (bounding-box cost).
ORACLE_MAX_LEVEL = 3

#: Hard cap on candidate vectors the oracle will sweep.
_ORACLE_MAX_CANDIDATES = 1 << 24

#: How far past its rounded bounds :func:`recursive_enumerate` looks, per
#: unit of 1 + max|corner|: 4 times the count slack of ``_walk.c`` (32 times
#: the fill slack), so that equal results check the walker's constants
#: instead of repeating them.  Every candidate is then decided on its image.
_SLACK = 2.0**-45


class CountRecord(NamedTuple):
    d: int
    log2n: int
    count: int


class TableCheck(NamedTuple):
    record: CountRecord
    observed: int
    match: bool


class DoubleBoxCheck(NamedTuple):
    direct: int
    filtered: int
    agree: bool


class UnimodularCheck(NamedTuple):
    max_integer_deviation: float
    det_deviation: float
    passed: bool


@lru_cache(maxsize=1)
def load_golden_table() -> tuple[CountRecord, ...]:
    """Known-good node counts for the standard boxes, one row per (d, log2N)."""
    text = resources.files("chebfrolov").joinpath("data/golden_counts.csv").read_text()
    return tuple(
        CountRecord(int(row["d"]), int(row["log2N"]), int(row["count"]))
        for row in csv.DictReader(io.StringIO(text))
    )


def oracle_enumerate(level: Level, box: Box) -> list[LatticePoint]:
    """Brute-force reference enumeration, independent of the streaming code.

    Inverts the dense generator, derives integer bounds for k by interval
    arithmetic on the box corners, and keeps every candidate whose image
    (computed as by :func:`apply_generator`) lies in the closed box.
    Returns points in lexicographic k order.  Only sensible for small
    levels; larger ones are refused.
    """
    import numpy as np

    if level.n > ORACLE_MAX_LEVEL:
        raise ValueError(
            f"oracle refuses level {level.n} > {ORACLE_MAX_LEVEL}: "
            "bounding-box sweep cost grows too fast"
        )
    if box.dimension != level.d:
        raise ValueError(f"box dimension {box.dimension} != {level.d}")
    ladder = build_diag_ladder(level)
    inv = np.linalg.inv(build_generator_matrix(level, ladder))
    b = np.asarray(box.lower)
    c = np.asarray(box.upper)
    # interval image of the box under the inverse, inflated before rounding
    lo = np.minimum(inv * b, inv * c).sum(axis=1)
    hi = np.maximum(inv * b, inv * c).sum(axis=1)
    pad = 1e-6 + 1e-12 * np.maximum(np.abs(lo), np.abs(hi))
    kmin = np.ceil(lo - pad).astype(int)
    kmax = np.floor(hi + pad).astype(int)
    sizes = np.maximum(kmax - kmin + 1, 0)
    total = int(np.prod(sizes))
    if total == 0:
        return []
    if total > _ORACLE_MAX_CANDIDATES:
        raise ValueError(f"oracle candidate set too large ({total} vectors)")

    accepted: list[LatticePoint] = []
    candidates = itertools.product(*(range(a, z + 1) for a, z in zip(kmin, kmax)))
    while chunk := list(itertools.islice(candidates, 65536)):
        X = _images(ladder, np.array(chunk))
        inside = np.flatnonzero(np.all((X >= b) & (X <= c), axis=1))
        accepted += [LatticePoint(chunk[i], tuple(X[i].tolist())) for i in inside]
    return accepted


def _images(ladder, K):
    """Generator images of the rows of K, bit-identical to the streamed ones.

    Runs the traversal's merge tree on all rows at once (a copy of K, which
    may be integer or real): round j pairs the 2**(j-1)-blocks and maps (A, Y) to (A + D*Y, A - D*Y)
    with D the ladder diagonal at level j - 1, the operations the traversal
    performs one point at a time.
    """
    import numpy as np

    m, d = K.shape
    X = K.astype(np.float64)
    w = 1
    for diag in ladder.levels[: d.bit_length() - 1]:
        pairs = X.reshape(m, d // (2 * w), 2, w)
        A = pairs[:, :, 0, :]
        prod = np.array(diag[:w]) * pairs[:, :, 1, :]
        pairs[:, :, 1, :] = A - prod
        A += prod
        w *= 2
    return X


def interval_mean(level: int, values: Sequence[float]) -> tuple[float, ...]:
    """Componentwise mean of the two halves of a length-2**(level+1) vector."""
    half = 1 << level
    return tuple((values[t] + values[half + t]) / 2.0 for t in range(half))


def clamp_bounds(
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
    dl = ladder.level(level)
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
    is kept iff its image lies in the box.  Shares no code with the compiled
    traversal and returns the same list as streaming into a list,
    bit-for-bit, at any level.
    """
    if box.dimension != level.d:
        raise ValueError(f"box dimension {box.dimension} != {level.d}")
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
    for k1 in _recursive_ks(L, interval_mean(L, lower), interval_mean(L, upper), ladder, slack):
        lo2, hi2 = clamp_bounds(L, apply_generator(ladder, k1), lower, upper, ladder)
        out.extend(k1 + k2 for k2 in _recursive_ks(L, lo2, hi2, ladder, slack))
    return out


def double_box_check(level: Level, scale: float) -> DoubleBoxCheck:
    """Two-scale consistency: enumerate at scale 2N, filter into the N box.

    The N-scale box is strictly contained in the 2N-scale box, so every
    N-scale point reappears in the larger enumeration; filtering its images
    into the N-scale box by the membership rule must give the direct count.
    """
    ladder = build_diag_ladder(level)
    small = standard_box(CubatureSpec(level, scale))
    big = standard_box(CubatureSpec(level, 2.0 * scale))
    direct = count_points(level, small, ladder)
    d = level.d
    lower, upper = small.lower, small.upper
    filtered = 0
    for _, X in _fill(_prepare(level, big, ladder), d, _STREAM_ROWS):
        for x in zip(*[iter(X.tolist())] * d):
            filtered += all(map(operator.le, lower, x)) and all(map(operator.le, x, upper))
    return DoubleBoxCheck(direct, filtered, direct == filtered)


def unimodular_check(level: Level) -> UnimodularCheck:
    """Confirm the block generator spans the same lattice as the Vandermonde.

    Solves V S = A, V the Vandermonde of the permuted roots and A the
    generator (its columns the :func:`apply_generator` images of the unit
    vectors), by Gaussian elimination in Python; S must be an integer matrix
    with |det S| = 1.  Reports the worst entry deviation from the nearest
    integer and the deviation of |det| from one; passes when both are below
    1e-6.
    """
    if level.n > 3:
        raise ValueError(f"unimodular check limited to level <= 3, got {level.n}")
    d = level.d
    ladder = build_diag_ladder(level)
    columns = [apply_generator(ladder, [float(i == j) for i in range(d)]) for j in range(d)]
    vand = []
    for k in range(1, d + 1):
        root, power, row = chebyshev_root(level.n, k), 1.0, []
        for _ in range(d):
            row.append(power)
            power *= root
        vand.append(row)
    s, _ = _eliminate(vand, list(zip(*columns)))
    if s is None:
        return UnimodularCheck(math.inf, math.inf, False)
    _, det = _eliminate(s, [[]] * d)
    max_dev = max(abs(v - round(v)) for row in s for v in row)
    det_dev = abs(abs(det) - 1.0)
    return UnimodularCheck(max_dev, det_dev, max_dev < 1e-6 and det_dev < 1e-6)


def _eliminate(a, b):
    """Solve a x = b for square a by Gaussian elimination with partial pivoting.

    a and b are sequences of rows (b may have zero columns).  Returns x as a
    list of rows and det a, the signed product of the pivots; a singular a
    (a zero pivot) gives ``(None, 0.0)``.
    """
    n = len(a)
    rows = [[*ra, *rb] for ra, rb in zip(a, b)]
    det = 1.0
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(rows[r][c]))
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        pivot = rows[c][c]
        det *= pivot
        if pivot == 0.0:
            return None, 0.0
        for r in range(c + 1, n):
            factor = rows[r][c] / pivot
            rows[r][c:] = [v - factor * w for v, w in zip(rows[r][c:], rows[c][c:])]
    x = [None] * n
    for r in reversed(range(n)):
        row = rows[r]
        x[r] = [
            (row[n + j] - math.fsum(row[k] * x[k][j] for k in range(r + 1, n))) / row[r]
            for j in range(len(row) - n)
        ]
    return x, det


def reproduce_table(max_level: Level, max_log2n: int) -> list[TableCheck]:
    """Re-count every golden row with d <= 2**max_level.n and log2N <= max_log2n."""
    checks: list[TableCheck] = []
    ladders: dict[int, tuple[Level, object]] = {}
    for record in load_golden_table():
        if record.d > max_level.d or record.log2n > max_log2n:
            continue
        if record.d not in ladders:
            lvl = Level.from_dimension(record.d)
            ladders[record.d] = (lvl, build_diag_ladder(lvl))
        lvl, ladder = ladders[record.d]
        box = standard_box(CubatureSpec(lvl, float(2**record.log2n)))
        observed = count_points(lvl, box, ladder)
        checks.append(TableCheck(record, observed, observed == record.count))
    return checks
