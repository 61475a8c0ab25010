"""Enumeration of generator-lattice points inside axis-parallel boxes.

A box constraint in dimension 2**(L+1) splits into two constraints in
dimension 2**L: the first half-block image must land between the half-means
of the corners, and once it is fixed the second half-block image is confined
to clamped residual bounds with the level diagonal divided out.  One
traversal kernel runs that reduction in constant memory: nested integer
loops over k_1..k_{d-1}, with partial generator images maintained by
FFT-style butterfly merges keyed by the 2-adic valuation of the coordinate
index.  The kernel is Python source generated for one level, ladder and
leaf, compiled on first use and cached: every bound and image slot is a
local variable, every ladder entry a literal, and every merge, clamp and
mean is written out.  For each prefix the innermost coordinate k_d ranges
over an integer run [lo, hi], which goes to one of three leaves:

- ``count_points`` adds the run length inline;
- ``enumerate_stream`` loops k_d, finishing each image with the last
  butterfly chain, and calls a consumer per point;
- ``enumerate_batches`` records the run and its prefix, and builds the
  points of a whole batch of runs in numpy, images by the same merge tree,
  to yield ``(K, X)`` arrays.

All of them visit points in lexicographic order of the integer coordinates k
and perform identical floating-point operations, so their outputs agree
bit-for-bit, with each other and with :func:`apply_generator`.
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


def apply_generator(ladder: DiagLadder, coords: Sequence[float]) -> tuple[float, ...]:
    """Apply the generator to a real vector via rounds of butterfly merges.

    Uses exactly the merge tree of the traversal (see :func:`_images`), so
    for integer coords the result matches emitted point images bit-for-bit.
    """
    d = len(coords)
    n = d.bit_length() - 1
    if d <= 0 or (1 << n) != d:
        raise ValueError(f"vector length must be a power of two, got {d}")
    if ladder.depth < n:
        raise ValueError(f"ladder depth {ladder.depth} < required {n}")
    return tuple(_images(ladder, np.array([coords], dtype=np.float64))[0].tolist())


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
    propagate and abort the traversal.  The kernel's state is a fixed set of
    local variables and does not grow with the number of emissions.
    """
    kernel, eps = _prepare(level, box, ladder, boundary_eps, "stream")
    return kernel(box.lower, box.upper, eps, consumer)


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
    kernel, eps = _prepare(level, box, ladder, boundary_eps, "batches")
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    runs: list[int] = []
    walk = kernel(box.lower, box.upper, eps, runs.extend, size)
    return _batches(walk, runs, ladder, level.d, size)


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
    kernel, eps = _prepare(level, box, ladder, boundary_eps, "count")
    return kernel(box.lower, box.upper, eps)


def _prepare(level, box, ladder, boundary_eps, leaf):
    """Check an entry point's arguments; return its kernel and ``eps``.

    The box must have the lattice dimension, the ladder must reach the
    level, and ``boundary_eps`` must be finite and >= 0.
    """
    if box.dimension != level.d:
        raise ValueError(f"box dimension {box.dimension} != lattice dimension {level.d}")
    if ladder.depth < level.n:
        raise ValueError(f"ladder depth {ladder.depth} < level {level.n}")
    eps = float(boundary_eps)
    if not (eps >= 0.0 and math.isfinite(eps)):
        raise ValueError(f"boundary_eps must be finite and >= 0, got {boundary_eps}")
    return _kernel(level.n, ladder.levels[: level.n], leaf), eps


#: Loops per generated function.  CPython refuses more than 20 statically
#: nested blocks, so deeper kernels nest one closure per run of this many
#: coordinates.
_SEGMENT = 16

#: From this level on, the count kernel enumerates only the first half-block
#: and adds the level n-1 count of each clamped second-half box (the split
#: of the paper): the second half reuses the level n-1 kernel, so the source
#: compiled for level n is 40 % shorter.
_SPLIT = 5


@lru_cache(maxsize=64)
def _kernel(n, diag, leaf):
    """The traversal kernel of one leaf, specialised to a level and its ladder.

    Generated and compiled on first use (see :func:`_kernel_source`);
    ``diag`` is ``ladder.levels[:n]``, whose values become literals.
    """
    code = compile(_kernel_source(n, diag, leaf), f"<{leaf} kernel, d={1 << n}>", "exec")
    namespace = {
        "ceil": math.ceil,
        "floor": math.floor,
        "LatticePoint": LatticePoint,
        # builds a LatticePoint without the Python frame of its __new__
        "new": tuple.__new__,
    }
    if leaf == "count" and n >= _SPLIT:
        namespace["half"] = _kernel(n - 1, diag[:-1], leaf)
    exec(code, namespace)
    return namespace["kernel"]


def _kernel_source(n, diag, leaf):
    """Python source of ``kernel(lower, upper, eps, ...)`` for one leaf.

    Bound tables become local names: ``a{L}_{f}``, ``b{L}_{f}`` and
    ``g{L}_{f}`` are flat slot f of the level-L partial images and of the
    lower and upper bounds (level-L slot s covers f in [s*2**L, (s+1)*2**L)).
    The corners are unpacked into level n and their means cascaded down to
    level 0.  Then one ``for`` per coordinate k_i, i = 1..d-1, in
    lexicographic order:

    - odd i: the new scalar is its own partial image and clamps its level-1
      sibling, which bounds k_{i+1} directly;
    - even i = 2**r * p (p odd): butterfly merges refresh the partial images
      of levels 1..r, the level-r sibling block is clamped, and its bounds
      are cascaded to level 0, where slot i bounds k_{i+1}.

    The innermost coordinate k_d is left as the integer run [lo, hi], which
    goes to the leaf: ``count`` adds its length, ``stream`` loops k_d, runs
    the last butterfly chain and calls ``consumer`` per point, and
    ``batches`` records the run as (lo, hi, k_1, ..., k_{d-1}) through
    ``extend`` and yields the number of pending points to build once at
    least ``size`` are pending, then once more at the end.  From level
    ``_SPLIT`` on, ``count`` stops at k_{d/2} instead: the clamped
    second-half box goes to ``half``, the level n-1 count kernel, whose
    cascade and loops perform the operations this kernel would.

    Every run of ``_SEGMENT`` coordinates past the first is a nested closure
    ``seg{i}(lo, hi)``; only the one holding the leaf assigns a shared name
    (the accumulator, declared ``nonlocal``).
    """
    d = 1 << n
    # the coordinate whose loop assigns the accumulator
    stop = d // 2 if leaf == "count" and n >= _SPLIT else d - 1
    acc = "pending" if leaf == "batches" else "count"
    call = "yield from " if leaf == "batches" else ""

    def run(prefix):
        """The leaf for a nonempty run [lo, hi] of k_d after the prefix."""
        if leaf == "count":
            return ["count += hi - lo + 1"]
        if leaf == "batches":
            return [
                f"extend({_tup(['lo', 'hi'] + prefix)})",
                "pending += hi - lo + 1",
                "if pending >= size:",
                "    yield pending - pending % size",
                "    pending %= size",
            ]
        image = _tup([f"a{n}_{f}" for f in range(d)])
        return [
            "count += hi - lo + 1",
            f"prefix = {_tup(prefix)}",
            "for k in range(lo, hi + 1):",
            *_indent([f"a0_{d - 1} = float(k)", *_merges(d, diag)]),
            f"    consumer(new(LatticePoint, (prefix + (k,), {image})))",
        ]

    def nest(i, lo, hi, first, head):
        """The loop of k_i over [lo, hi] with everything inside it."""
        if i - first == _SEGMENT:
            head += [f"def seg{i}(lo, hi):", *_indent(segment(i))]
            return [f"{call}seg{i}({lo}, {hi})"]
        body = [f"a0_{i - 1} = float(k{i})"]
        if i % 2:
            a, dl = f"a0_{i - 1}", _lit(diag[0][0])
            body += [
                f"lo1 = b1_{i - 1} - {a}",
                f"lo2 = {a} - g1_{i}",
                f"hi1 = g1_{i - 1} - {a}",
                f"hi2 = {a} - b1_{i}",
                f"lo = ceil((lo1 if lo1 > lo2 else lo2) / {dl} - eps)",
                f"hi = floor((hi1 if hi1 < hi2 else hi2) / {dl} + eps)",
            ]
            if i == d - 1:
                body += ["if hi >= lo:", *_indent(run([f"k{j}" for j in range(1, d)]))]
            else:
                body += nest(i + 1, "lo", "hi", first, head)
        else:
            body += _merges(i, diag) + _clamp(i, diag)
            if i == stop:
                lower, upper = (_tup([f"{c}{n - 1}_{f}" for f in range(i, d)]) for c in "bg")
                body.append(f"count += half({lower}, {upper}, eps)")
            else:
                body += _means(i, (i & -i).bit_length() - 1)
                body += nest(i + 1, f"ceil(b0_{i} - eps)", f"floor(g0_{i} + eps)", first, head)
        return [f"for k{i} in range({lo}, {hi} + 1):", *_indent(body)]

    def segment(first):
        head = [f"nonlocal {acc}"] if stop - first < _SEGMENT else []
        loops = nest(first, "lo", "hi", first, head)
        return head + loops

    head = []
    if d == 1:
        loops = ["lo = ceil(b0_0 - eps)", "hi = floor(g0_0 + eps)", "if hi >= lo:", *_indent(run([]))]
    else:
        loops = nest(1, "ceil(b0_0 - eps)", "floor(g0_0 + eps)", 1, head)
    params = {"count": "", "stream": ", consumer", "batches": ", extend, size"}[leaf]
    end = ["if pending:", "    yield pending"] if leaf == "batches" else ["return count"]
    body = [
        f"{_tup([f'b{n}_{f}' for f in range(d)])} = lower",
        f"{_tup([f'g{n}_{f}' for f in range(d)])} = upper",
        *_means(0, n),
        f"{acc} = 0",
        *head,
        *loops,
        *end,
    ]
    return "\n".join([f"def kernel(lower, upper, eps{params}):", *_indent(body), ""])


def _merges(i, diag):
    """Butterfly merges refreshing the partial images once k_i (i even) is set.

    With i = 2**r * p, p odd: level j = 1..r pairs the two 2**(j-1)-blocks
    ending at i and maps (A, Y) to (A + D*Y, A - D*Y), D the ladder diagonal
    at level j - 1.  For i = d this is the chain that finishes an image.
    """
    r = (i & -i).bit_length() - 1
    lines = []
    for j in range(1, r + 1):
        w = 1 << (j - 1)
        mid = i - w
        for t in range(mid - w, mid):
            lines += [
                f"prod = {_lit(diag[j - 1][t - mid + w])} * a{j - 1}_{t + w}",
                f"a{j}_{t} = a{j - 1}_{t} + prod",
                f"a{j}_{t + w} = a{j - 1}_{t} - prod",
            ]
    return lines


def _clamp(i, diag):
    """Bounds of the level-r sibling block once k_i (i = 2**r * p < d) is set."""
    r = (i & -i).bit_length() - 1
    start = i - (1 << r)
    lines = []
    for t in range(1 << r):
        a, dl = f"a{r}_{start + t}", _lit(diag[r][t])
        lines += [
            f"lo1 = b{r + 1}_{start + t} - {a}",
            f"lo2 = {a} - g{r + 1}_{i + t}",
            f"hi1 = g{r + 1}_{start + t} - {a}",
            f"hi2 = {a} - b{r + 1}_{i + t}",
            f"b{r}_{i + t} = (lo1 if lo1 > lo2 else lo2) / {dl}",
            f"g{r}_{i + t} = (hi1 if hi1 < hi2 else hi2) / {dl}",
        ]
    return lines


def _means(i, top):
    """Cascade the level-``top`` bounds at slot i down to level 0 by half-means."""
    lines = []
    for j in range(top - 1, -1, -1):
        w = 1 << j
        for t in range(i, i + w):
            lines += [
                f"b{j}_{t} = (b{j + 1}_{t} + b{j + 1}_{t + w}) / 2.0",
                f"g{j}_{t} = (g{j + 1}_{t} + g{j + 1}_{t + w}) / 2.0",
            ]
    return lines


def _lit(value):
    """A ladder entry as a literal that parses back to the same double."""
    if not math.isfinite(value):
        raise ValueError(f"ladder entries must be finite, got {value!r}")
    return repr(float(value))


def _tup(names):
    return f"({', '.join(names)}{',' if len(names) == 1 else ''})"


def _indent(lines):
    return ["    " + line for line in lines]


def _batches(walk, runs, ladder, d, size):
    """Generator behind :func:`enumerate_batches`.

    ``walk`` is the batch kernel: it appends each run as one row (lo, hi,
    k_1, ..., k_{d-1}) to ``runs`` and yields how many pending points to
    build, a multiple of ``size`` or, at the end, all of them.  Each batch
    is built in numpy, images included (see :func:`_images`); the points
    not built stay in ``runs``.
    """
    last = d - 1
    for upto in walk:
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


def _images(ladder, K):
    """Generator images of the rows of K, bit-identical to the streamed ones.

    Runs the traversal's merge tree on all rows at once (a copy of K, which
    may be integer or real): round j pairs the 2**(j-1)-blocks and maps (A, Y) to (A + D*Y, A - D*Y)
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
