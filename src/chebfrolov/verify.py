"""Independent correctness machinery.

Three routes confirm the enumeration: a brute-force oracle that inverts the
generator and tests every integer vector in a bounding box, a two-scale
consistency check that enumerates the double-scale box and filters, and
regression against the golden table, the known-good node counts of the
standard cubature boxes (``data/golden_counts.csv``), whose rows within a
pair of limits :func:`golden_rows` selects.  The tests hold a fourth, the
recursive reference that applies the half-mean and clamp split of the box
in Python (``tests/lattice_reference.py``).  Of this module the package
exports only :func:`load_golden_table` and :func:`oracle_enumerate`, on
first access; the checks and the records are imported from here.

The oracle and the filter keep a point iff its :func:`apply_generator`
image x has ``lower <= x <= upper`` (:func:`_in_box`), as the enumerators do.

Nothing here loads numpy.  The generator's rows are the images of the unit
vectors, and the oracle and the unimodular check both solve their d <= 8
systems with them by Gaussian elimination in Python (:func:`_eliminate`);
the two-scale check filters the walker's fills in Python.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import Iterator, NamedTuple

from .cubature import CubatureSpec, standard_box
from .enumeration import Box, LatticePoint, _fill, _library, apply_generator, count_points
from .lattice import DiagLadder, Level, build_diag_ladder, chebyshev_root

#: The brute-force oracle refuses levels above this (bounding-box cost).
ORACLE_MAX_LEVEL = 3

#: Hard cap on candidate vectors the oracle will sweep.
_ORACLE_MAX_CANDIDATES = 1 << 24

#: :func:`unimodular_check` refuses levels above this, and the CLI's
#: ``verify`` checks every level up to it.
UNIMODULAR_MAX_LEVEL = 3


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


def oracle_enumerate(level: Level, box: Box) -> list[LatticePoint]:
    """Brute-force reference enumeration, independent of the streaming code.

    Inverts the generator (its rows from :func:`_generator_rows`) by
    :func:`_eliminate`, bounds each k_i by interval arithmetic on the box
    corners, padded by ``1e-6 + 1e-12 * max(|lo|, |hi|)`` before rounding,
    and keeps every candidate whose image, made by the walker module's
    merges as :func:`apply_generator` makes it, lies in the closed box.
    Returns points in lexicographic k order.  Only sensible for small
    levels; larger ones, and more than ``_ORACLE_MAX_CANDIDATES``
    candidates, are refused before any is swept.
    """
    if level.n > ORACLE_MAX_LEVEL:
        raise ValueError(
            f"oracle refuses level {level.n} > {ORACLE_MAX_LEVEL}: "
            "bounding-box sweep cost grows too fast"
        )
    if box.dimension != level.d:
        raise ValueError(f"box dimension {box.dimension} != lattice dimension {level.d}")
    ladder, inv = _oracle_level(level.n)
    lower, upper = box.lower, box.upper
    ranges = []
    for row in inv:
        # interval image of the box under the inverse, inflated before rounding
        lo = sum(min(g * b, g * c) for g, b, c in zip(row, lower, upper))
        hi = sum(max(g * b, g * c) for g, b, c in zip(row, lower, upper))
        pad = 1e-6 + 1e-12 * max(abs(lo), abs(hi))
        ranges.append(range(math.ceil(lo - pad), math.floor(hi + pad) + 1))
    if (total := math.prod(map(len, ranges))) > _ORACLE_MAX_CANDIDATES:
        raise ValueError(f"oracle candidate set too large ({total} vectors)")

    image, flat, n = _library().apply_generator, ladder._flat, level.n
    accepted: list[LatticePoint] = []
    for k in itertools.product(*ranges):
        x = image(flat, k, n)
        if _in_box(box, x):
            accepted.append(LatticePoint(k, x))
    return accepted


@lru_cache(maxsize=ORACLE_MAX_LEVEL + 1)
def _oracle_level(n: int) -> tuple[DiagLadder, list[list[float]]]:
    """The ladder of level n and the inverse of its generator's rows: what the
    oracle needs of a level, built once per level."""
    d = 1 << n
    ladder = build_diag_ladder(Level(n))
    identity = [[float(i == j) for j in range(d)] for i in range(d)]
    inv, _ = _eliminate(_generator_rows(ladder, d), identity)
    return ladder, inv


def _in_box(box: Box, x) -> bool:
    """Whether x lies in the closed box: ``lower <= x <= upper`` coordinatewise."""
    return all(map(operator.le, box.lower, x)) and all(map(operator.le, x, box.upper))


def _generator_rows(ladder: DiagLadder, d: int) -> list[tuple[float, ...]]:
    """The d x d generator as rows: its columns are the images of the unit vectors."""
    columns = [apply_generator(ladder, [float(i == j) for i in range(d)]) for j in range(d)]
    return list(zip(*columns))


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
    filtered = 0
    for _, X in _fill(level, big, ladder):
        filtered += sum(_in_box(small, x) for x in zip(*[iter(X.tolist())] * d))
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
    if level.n > UNIMODULAR_MAX_LEVEL:
        raise ValueError(f"unimodular check refuses level {level.n} > {UNIMODULAR_MAX_LEVEL}")
    d = level.d
    ladder = build_diag_ladder(level)
    vand = []
    for k in range(1, d + 1):
        root, power, row = chebyshev_root(level.n, k), 1.0, []
        for _ in range(d):
            row.append(power)
            power *= root
        vand.append(row)
    s, _ = _eliminate(vand, _generator_rows(ladder, d))
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


@lru_cache(maxsize=1)
def load_golden_table() -> tuple[CountRecord, ...]:
    """Known-good node counts for the standard boxes, one row per (d, log2N)."""
    import csv
    import io
    from importlib import resources

    text = resources.files("chebfrolov").joinpath("data/golden_counts.csv").read_text()
    return tuple(
        CountRecord(int(row["d"]), int(row["log2N"]), int(row["count"]))
        for row in csv.DictReader(io.StringIO(text))
    )


def golden_rows(max_level: Level, max_log2n: int) -> list[CountRecord]:
    """The golden rows with d <= 2**max_level.n and log2N <= max_log2n, in table order."""
    return [r for r in load_golden_table() if r.d <= max_level.d and r.log2n <= max_log2n]


def reproduce_table(max_level: Level, max_log2n: int) -> Iterator[TableCheck]:
    """Re-count each row of :func:`golden_rows`, yielding its check as it is counted."""
    for record in golden_rows(max_level, max_log2n):
        lvl = Level.from_dimension(record.d)
        box = standard_box(CubatureSpec(lvl, float(2**record.log2n)))
        observed = count_points(lvl, box, build_diag_ladder(lvl))
        yield TableCheck(record, observed, observed == record.count)
