"""Enumeration of generator-lattice points inside axis-parallel boxes.

``enumerate_recursive`` materialises the point set by recursively splitting
a box constraint in dimension 2**(L+1) into two constraints in dimension
2**L: the first half-block must land between the half-means of the corners,
and once its image is fixed the second half-block is confined to clamped
residual bounds with the level diagonal divided out.

Everything else runs on one traversal kernel, the constant-memory form of
the same reduction: nested integer loops over k_1..k_{d-1} whose bound
tables are refreshed incrementally, with partial generator images maintained
by FFT-style butterfly merges keyed by the 2-adic valuation of the coordinate
index.  For each prefix the innermost coordinate k_d ranges over an integer
run [lo, hi], which the kernel hands to one of three leaves:

- ``count_points`` adds the run length inline;
- ``enumerate_stream`` loops k_d in Python, finishing each image with the
  last butterfly chain, and calls a consumer per point;
- ``enumerate_batches`` records the run and its prefix, and builds the
  points of a whole batch of runs in numpy, images by the same merge tree,
  to yield ``(K, X)`` arrays.

All of them visit points in lexicographic order of the integer coordinates k
and perform identical floating-point operations, so their outputs agree
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .lattice import DiagLadder, Level


@dataclass(frozen=True)
class Box:
    """Axis-parallel box [lower, upper]; may be empty in some coordinates."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        if len(lo) != len(hi):
            raise ValueError(f"corner lengths differ: {len(lo)} vs {len(hi)}")
        if not all(math.isfinite(v) for v in lo + hi):
            raise ValueError("box corners must be finite (no NaN/inf)")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @classmethod
    def symmetric(cls, half_width: float, d: int) -> "Box":
        hw = float(half_width)
        return cls((-hw,) * d, (hw,) * d)


class LatticePoint(NamedTuple):
    """Integer coordinates ``k`` and their generator image ``x``."""

    k: tuple[int, ...]
    x: tuple[float, ...]


Consumer = Callable[[LatticePoint], None]


def interval_mean(level: int, values: Sequence[float]) -> tuple[float, ...]:
    """Componentwise mean of the two halves of a length-2**(level+1) vector."""
    half = 1 << level
    if len(values) != 2 * half:
        raise ValueError(f"expected length {2 * half}, got {len(values)}")
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
    if len(anchor) != half:
        raise ValueError(f"anchor length {len(anchor)} != {half}")
    if len(lower) != 2 * half or len(upper) != 2 * half:
        raise ValueError(f"corner length must be {2 * half}")
    lo = []
    hi = []
    for t in range(half):
        a = anchor[t]
        lo.append(max(lower[t] - a, a - upper[half + t]) / dl[t])
        hi.append(min(upper[t] - a, a - lower[half + t]) / dl[t])
    return tuple(lo), tuple(hi)


def butterfly_merge(
    level: int,
    first: Sequence[float],
    second: Sequence[float],
    ladder: DiagLadder,
) -> tuple[float, ...]:
    """Combine two level-(level-1) block images into one level-``level`` image.

    Returns (first + D*second ; first - D*second) with D the ladder diagonal
    at ``level - 1`` -- the same shape of update a radix-2 FFT applies to its
    even/odd halves.
    """
    if level < 1:
        raise ValueError("merge level must be >= 1")
    half = 1 << (level - 1)
    dl = ladder.level(level - 1)
    if len(first) != half or len(second) != half:
        raise ValueError(f"both halves must have length {half}")
    prods = [dl[t] * second[t] for t in range(half)]
    return tuple(first[t] + prods[t] for t in range(half)) + tuple(
        first[t] - prods[t] for t in range(half)
    )


def apply_generator(ladder: DiagLadder, coords: Sequence[float]) -> tuple[float, ...]:
    """Apply the generator to a real vector via rounds of butterfly merges.

    Uses exactly the merge tree of the streaming traversal, so for integer
    coords the result matches emitted point images bit-for-bit.
    """
    d = len(coords)
    n = d.bit_length() - 1
    if d <= 0 or (1 << n) != d:
        raise ValueError(f"vector length must be a power of two, got {d}")
    if ladder.depth < n:
        raise ValueError(f"ladder depth {ladder.depth} < required {n}")
    blocks: list[tuple[float, ...]] = [(float(c),) for c in coords]
    lvl = 1
    while len(blocks) > 1:
        blocks = [
            butterfly_merge(lvl, blocks[j], blocks[j + 1], ladder)
            for j in range(0, len(blocks), 2)
        ]
        lvl += 1
    return blocks[0]


class EnumState:
    """Mutable tables driving one streaming traversal (not shareable mid-flight).

    Three stacked tables with one flat row of length d per level 0..n:
    partial generator images (``alpha``) and running lower/upper bound
    vectors (``beta``/``gamma``).  Level-L slot a occupies flat indices
    [(a-1)*2**L, a*2**L), so total state is Theta(n * 2**n) floats per table
    regardless of how many points are emitted.  ``valuation[i]`` caches
    (r, p) with i = 2**r * p and p odd, which names the slots to refresh
    after coordinate i is fixed.  ``k[i]`` is the current value of
    coordinate i for 1 <= i < d, so ``k[1:]`` is the prefix of an innermost
    run.
    """

    __slots__ = ("level", "alpha", "beta", "gamma", "valuation", "k")

    def __init__(self, level: Level, box: Box) -> None:
        if box.dimension != level.d:
            raise ValueError(
                f"box dimension {box.dimension} != lattice dimension {level.d}"
            )
        n = level.n
        d = level.d
        self.level = level
        self.alpha = [[0.0] * d for _ in range(n + 1)]
        self.beta = [[0.0] * d for _ in range(n + 1)]
        self.gamma = [[0.0] * d for _ in range(n + 1)]
        self.beta[n][:] = box.lower
        self.gamma[n][:] = box.upper
        # cascade the corner means down to scalar bounds for coordinate 1
        for j in range(n - 1, -1, -1):
            w = 1 << j
            bp, gp = self.beta[j + 1], self.gamma[j + 1]
            bj, gj = self.beta[j], self.gamma[j]
            for t in range(w):
                bj[t] = (bp[t] + bp[w + t]) / 2.0
                gj[t] = (gp[t] + gp[w + t]) / 2.0
        self.valuation = _valuations(d)
        self.k = [0] * d


@lru_cache(maxsize=None)
def _valuations(d: int) -> tuple[tuple[int, int], ...]:
    """(r, p) with i = 2**r * p, p odd, for i = 1..d (index 0 unused).

    Shared by every traversal of dimension d; caching it takes an O(d) loop
    out of the set-up of each small-box query.
    """
    val = [(0, 0)] * (d + 1)
    for i in range(1, d + 1):
        r = (i & -i).bit_length() - 1
        val[i] = (r, i >> r)
    return tuple(val)


def _require_compatible(level: Level, box: Box, ladder: DiagLadder) -> None:
    if box.dimension != level.d:
        raise ValueError(
            f"box dimension {box.dimension} != lattice dimension {level.d}"
        )
    if ladder.depth < level.n:
        raise ValueError(f"ladder depth {ladder.depth} < level {level.n}")


def _check_eps(boundary_eps: float) -> float:
    eps = float(boundary_eps)
    if not (eps >= 0.0 and math.isfinite(eps)):
        raise ValueError(f"boundary_eps must be finite and >= 0, got {boundary_eps}")
    return eps


def enumerate_recursive(
    level: Level,
    box: Box,
    ladder: DiagLadder,
    *,
    boundary_eps: float = 0.0,
) -> list[LatticePoint]:
    """All lattice points k with lower <= (generator) k <= upper.

    Returns the duplicate-free point set as a list in lexicographic k order
    (identical to the streaming emission order).  Materialises everything;
    use ``enumerate_stream`` when memory matters.
    """
    _require_compatible(level, box, ladder)
    eps = _check_eps(boundary_eps)
    raw = _set_recursive(level.n, box.lower, box.upper, ladder, eps)
    return [LatticePoint(k, x) for k, x in raw]


def _set_recursive(n, lower, upper, ladder, eps):
    if n == 0:
        lo = math.ceil(lower[0] - eps)
        hi = math.floor(upper[0] + eps)
        return [((k,), (float(k),)) for k in range(lo, hi + 1)]
    L = n - 1
    first_lo = interval_mean(L, lower)
    first_hi = interval_mean(L, upper)
    out = []
    for k1, a1 in _set_recursive(L, first_lo, first_hi, ladder, eps):
        lo2, hi2 = clamp_bounds(L, a1, lower, upper, ladder)
        for k2, a2 in _set_recursive(L, lo2, hi2, ladder, eps):
            out.append((k1 + k2, butterfly_merge(n, a1, a2, ladder)))
    return out


def enumerate_stream(
    level: Level,
    box: Box,
    ladder: DiagLadder,
    consumer: Consumer,
    *,
    boundary_eps: float = 0.0,
) -> int:
    """Stream every lattice point in the box through ``consumer``; return the count.

    Points are visited in lexicographic order of k.  The consumer receives an
    immutable :class:`LatticePoint` (value copies); exceptions it raises
    propagate and abort the traversal.  State is allocated once up front and
    does not grow with the number of emissions.
    """
    _require_compatible(level, box, ladder)
    eps = _check_eps(boundary_eps)
    state = EnumState(level, box)
    d = level.d
    last = d - 1
    ks = state.k
    a0 = state.alpha[0]
    an = state.alpha[level.n]
    plans = _refresh_schedules(state, ladder)
    chain = plans[0][d]

    def emit(lo: int, hi: int) -> None:
        prefix = tuple(ks[1:])
        for k in range(lo, hi + 1):
            a0[last] = float(k)
            for src, dst, dl, base, mid, w in chain:
                if w == 1:
                    a1 = src[base]
                    prod = dl[0] * src[mid]
                    dst[base] = a1 + prod
                    dst[mid] = a1 - prod
                else:
                    for t in range(w):
                        a1 = src[base + t]
                        prod = dl[t] * src[mid + t]
                        dst[base + t] = a1 + prod
                        dst[mid + t] = a1 - prod
            consumer(LatticePoint(prefix + (k,), tuple(an)))

    return next(_walk(state, ladder, eps, emit, plans))


def enumerate_batches(
    level: Level,
    box: Box,
    ladder: DiagLadder,
    size: int = 1024,
    *,
    boundary_eps: float = 0.0,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the lattice points in the box as ``(K, X)`` array batches.

    ``K`` (int64) and ``X`` (float64) have shape (m, d) with 1 <= m <= ``size``;
    every batch but the last has exactly ``size`` rows.  Rows follow the
    lexicographic k order of :func:`enumerate_stream`, and ``X`` is
    bit-identical to the streamed images: the merge tree runs over a whole
    batch with the operations the traversal performs per point.  Long
    innermost runs are split across batches, so memory stays O(size * d).
    Arguments are checked by this call, before the first batch is asked for.
    """
    _require_compatible(level, box, ladder)
    eps = _check_eps(boundary_eps)
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    return _batches(EnumState(level, box), ladder, eps, size)


def count_points(
    level: Level,
    box: Box,
    ladder: DiagLadder,
    *,
    boundary_eps: float = 0.0,
) -> int:
    """Number of lattice points in the box, without storing or emitting them.

    Matches ``enumerate_stream`` with a counting consumer exactly; the
    innermost loop is collapsed to a closed-form integer count, which is what
    makes large scales cheap.
    """
    _require_compatible(level, box, ladder)
    eps = _check_eps(boundary_eps)
    state = EnumState(level, box)
    return next(_walk(state, ladder, eps, None, _refresh_schedules(state, ladder)))


def _refresh_schedules(state, ladder):
    """Per-coordinate update plans for even indices (odd ones are inlined).

    For i with 2-adic valuation r > 0: ``merges[i]`` lists the butterfly
    steps (src, dst, diag, base, mid, width) bottom-up, and ``clamps[i]``
    (i < d) bundles the level-r sibling clamp plus the mean cascade back to
    level 0.  ``merges[d]`` is the final chain the leaves run.  Entries
    alias the state's own table rows, so a plan is tied to its state.
    """
    d = 1 << state.level.n
    alpha, beta, gamma = state.alpha, state.beta, state.gamma
    diag = ladder.levels
    merges = [()] * (d + 1)
    clamps = [None] * (d + 1)
    for i in range(2, d + 1, 2):
        r = state.valuation[i][0]
        steps = []
        for j in range(1, r + 1):
            w = 1 << (j - 1)
            mid = i - w
            steps.append((alpha[j - 1], alpha[j], diag[j - 1], mid - w, mid, w))
        merges[i] = tuple(steps)
        if i < d:
            w = 1 << r
            casc = tuple(
                (beta[j + 1], gamma[j + 1], beta[j], gamma[j], 1 << j)
                for j in range(r - 1, -1, -1)
            )
            clamps[i] = (
                beta[r + 1],
                gamma[r + 1],
                beta[r],
                gamma[r],
                alpha[r],
                diag[r],
                i - w,
                w,
                casc,
            )
    return merges, clamps


def _walk(state, ladder, eps, leaf, plans):
    """The traversal kernel: fix k_1..k_{d-1}, hand each innermost run to a leaf.

    For each prefix k_1..k_{d-1} whose range [lo, hi] for k_d is nonempty,
    the run length is added to the count inline; with a ``leaf``,
    ``leaf(lo, hi)`` is called while ``state.k[1:]`` holds the prefix and
    ``state.alpha`` its partial images, and a true result pauses the walk.
    A generator: it yields None at each pause and finally yields the number
    of points, so a walk that never pauses costs one ``next``.  With d = 1
    the outer range is the only run.
    """
    n = state.level.n
    d = 1 << n
    ceil, floor = math.ceil, math.floor
    lo = ceil(state.beta[0][0] - eps)
    hi = floor(state.gamma[0][0] + eps)
    if d == 1:
        if hi < lo:
            yield 0
            return
        if leaf is not None and leaf(lo, hi):
            yield None
        yield hi - lo + 1
        return

    alpha, beta, gamma = state.alpha, state.beta, state.gamma
    a0, b0, g0 = alpha[0], beta[0], gamma[0]
    b1, g1 = beta[1], gamma[1]
    d0 = ladder.levels[0][0]
    merges, clamps = plans

    last = d - 1  # odd, so the innermost run is cut in the odd branch
    ks = state.k  # current k_i; starts one below its range
    end = [0] * d  # inclusive end of the current k_i range
    ks[1], end[1] = lo - 1, hi
    count = 0
    i = 1
    while i:
        k = ks[i] + 1
        if k > end[i]:
            i -= 1
            continue
        ks[i] = k
        if i & 1:
            # odd i: the new scalar is its own partial image; clamp its sibling
            a = float(k)
            a0[i - 1] = a
            lo1 = b1[i - 1] - a
            lo2 = a - g1[i]
            hi1 = g1[i - 1] - a
            hi2 = a - b1[i]
            # k_{i+1} ranges over [flo, fhi]; its real bounds are never read
            # again, so unlike the even branch this one does not store them
            flo = ceil((lo1 if lo1 > lo2 else lo2) / d0 - eps)
            fhi = floor((hi1 if hi1 < hi2 else hi2) / d0 + eps)
            if i == last:
                if fhi >= flo:
                    count += fhi - flo + 1
                    if leaf is not None and leaf(flo, fhi):
                        yield None
            else:
                i += 1
                ks[i] = flo - 1
                end[i] = fhi
            continue
        # even i: butterfly-refresh the partial images along the 2-adic chain
        a0[i - 1] = float(k)
        for src, dst, dl, base, mid, w in merges[i]:
            if w == 1:
                a1 = src[base]
                prod = dl[0] * src[mid]
                dst[base] = a1 + prod
                dst[mid] = a1 - prod
            else:
                for t in range(w):
                    a1 = src[base + t]
                    prod = dl[t] * src[mid + t]
                    dst[base + t] = a1 + prod
                    dst[mid + t] = a1 - prod
        # clamp the sibling block at level r, then cascade means to level 0
        pb, pg, cb, cg, ar, dl, start, w, casc = clamps[i]
        for t in range(w):
            a = ar[start + t]
            lo1 = pb[start + t] - a
            lo2 = a - pg[i + t]
            hi1 = pg[start + t] - a
            hi2 = a - pb[i + t]
            cb[i + t] = (lo1 if lo1 > lo2 else lo2) / dl[t]
            cg[i + t] = (hi1 if hi1 < hi2 else hi2) / dl[t]
        for pbj, pgj, cbj, cgj, w in casc:
            for t in range(w):
                cbj[i + t] = (pbj[i + t] + pbj[i + w + t]) / 2.0
                cgj[i + t] = (pgj[i + t] + pgj[i + w + t]) / 2.0
        i += 1
        ks[i] = ceil(b0[i - 1] - eps) - 1
        end[i] = floor(g0[i - 1] + eps)
    yield count


def _batches(state, ladder, eps, size):
    """Generator behind :func:`enumerate_batches`.

    The leaf records each run as one row (lo, hi, k_1, ..., k_{d-1}); once
    ``size`` points are pending the walk pauses, and the full batches are
    built in numpy, images included (see :func:`_images`).
    """
    d = 1 << state.level.n
    last = d - 1
    ks = state.k
    runs: list[int] = []
    extend = runs.extend
    pending = 0

    def record(lo: int, hi: int) -> bool:
        nonlocal pending
        extend((lo, hi))
        extend(ks[1:])
        pending += hi - lo + 1
        return pending >= size

    def build(upto: int):
        """Yield the pending points [0, upto) as batches; keep the rest pending."""
        nonlocal pending
        table = np.array(runs, dtype=np.int64).reshape(-1, d + 1)
        lengths = table[:, 1] - table[:, 0] + 1
        ends = np.cumsum(lengths)
        starts = ends - lengths
        for a in range(0, upto, size):
            b = min(a + size, upto)
            r0 = int(np.searchsorted(ends, a, side="right"))
            r1 = int(np.searchsorted(starts, b, side="left"))
            rep = np.minimum(ends[r0:r1], b) - np.maximum(starts[r0:r1], a)
            K = np.empty((b - a, d), dtype=np.int64)
            K[:, :last] = np.repeat(table[r0:r1, 2:], rep, axis=0)
            K[:, last] = np.arange(b - a) + np.repeat(table[r0:r1, 0] - starts[r0:r1] + a, rep)
            yield K, _images(ladder, K)
        r0 = int(np.searchsorted(ends, upto, side="right"))
        del runs[: r0 * (d + 1)]
        if runs:
            runs[0] += upto - int(starts[r0])  # the first run is cut: later lo
        pending -= upto

    walk = _walk(state, ladder, eps, record, _refresh_schedules(state, ladder))
    while next(walk) is None:
        yield from build(pending - pending % size)
    if pending:
        yield from build(pending)


def _images(ladder, K):
    """Generator images of the rows of K, bit-identical to the streamed ones.

    Runs the merge tree of :func:`apply_generator` on all rows at once:
    round j pairs the 2**(j-1)-blocks and maps (A, Y) to (A + D*Y, A - D*Y)
    with D the ladder diagonal at level j - 1, the operations the traversal
    performs one point at a time.
    """
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
