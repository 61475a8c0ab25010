"""Enumeration of generator-lattice points inside axis-parallel boxes.

A box constraint in dimension 2**(L+1) splits into two constraints in
dimension 2**L, one per half-block of the image (A + D*Y, A - D*Y).  One
traversal runs that reduction in constant memory: nested integer loops over
the coordinates of k, with partial generator images maintained by FFT-style
butterfly merges keyed by the 2-adic valuation of the coordinate index.  It
is written in C (``_walk.c``, table-driven: d, the ladder and the box are
arguments), compiled with ``cc`` on first use, cached on disk and called
through :mod:`ctypes`; importing the package compiles and loads nothing.
For each prefix the innermost coordinate ranges over an integer run
[lo, hi], which goes to one of two leaves:

- A fill writes rows of k and x into int64 and float64 ``array.array``
  buffers, each image finished by the last butterfly chain; the walk stops
  when the buffers are full and resumes from its state buffer for the next
  pair.  One generator, ``_fill``, makes the walker calls and yields each
  filled pair.  ``enumerate_batches`` wraps each pair as ``(K, X)`` numpy
  arrays of their own; ``enumerate_stream`` turns it into Python lists,
  without numpy, and groups them into one :class:`LatticePoint` per
  consumer call, and the CLI's ``points`` formats a fill at a time.  A
  fill sets k_1..k_d in lexicographic order, mean-first: the first
  half-block image lies between the half-means of the corners, and once it
  is fixed the second is clamped to residual bounds with the level diagonal
  divided out.
- ``count_points`` adds the run lengths.  A count sets k_d..k_1,
  difference-first: the second half-block image Y lies in
  ``[(l1 - u2) / 2D, (u1 - l2) / 2D]``, and once it is fixed the first is
  clamped to ``[max(l1 - D*Y, l2 + D*Y), min(u1 - D*Y, u2 + D*Y)]``.  This
  prunes far better (39 instead of 218 visits per point at d = 32, N = 2**6).

The box is closed: a point is in it iff its :func:`apply_generator` image x
has ``lower <= x <= upper``.  Every range reaches a fixed slack past its
rounded bounds, and a run's ends within the slack are kept only if their
images are in the box (see the header of ``_walk.c``).

All three entry points compute images with identical floating-point
operations, so they keep the same points, and the images the stream and
the batches emit agree bit-for-bit with :func:`apply_generator`, in the
same lexicographic order of k.  :func:`apply_generator` runs the merge tree
on one Python list, and the oracle's ``verify._images`` on many rows at
once in numpy; both make the walker's operations in its order.  The
bounds that prune the search differ: a count's are its own, and so is its
slack.
A box with a corner beyond +-2**48, where the slack would reach a quarter
in a fill and 2 in a count, or one that needs a coordinate beyond +-2**62
is refused with ``ValueError``, unless it is empty (lower > upper in some
coordinate).

The same library holds ``map_nodes``, the node map of
:mod:`chebfrolov.cubature`, so :func:`integrate` maps each fill in C.  In
this module numpy is imported only by ``enumerate_batches``, the one
function that builds arrays, so counting, streaming, filling and
:func:`apply_generator` run without it.
"""

from __future__ import annotations

import ctypes
import math
import operator
import os
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

from .lattice import DiagLadder, Level

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-parallel box [lower, upper]; may be empty in some coordinates."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = tuple(map(float, self.lower))
        hi = tuple(map(float, self.upper))
        if len(lo) != len(hi):
            raise ValueError(f"corner lengths differ: {len(lo)} vs {len(hi)}")
        if not all(map(math.isfinite, lo + hi)):
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

    Runs the traversal's merge tree on one list of floats: round j maps each
    pair of 2**(j-1)-blocks (A, Y) to (A + D*Y, A - D*Y), each entry as
    ``p = D[i] * y; a + p; a - p``.  These are the operations of the walker
    and of the oracle's row-wise ``verify._images``, so for integer coords
    the result matches emitted point images bit-for-bit.
    """
    d = len(coords)
    n = d.bit_length() - 1
    if d <= 0 or (1 << n) != d:
        raise ValueError(f"vector length must be a power of two, got {d}")
    if ladder.depth < n:
        raise ValueError(f"ladder depth {ladder.depth} < required {n}")
    x = list(map(float, coords))
    w = 1
    for diag in ladder.levels[:n]:
        for start in range(0, d, 2 * w):
            for i, D in enumerate(diag, start):
                a = x[i]
                p = D * x[i + w]
                x[i] = a + p
                x[i + w] = a - p
        w *= 2
    return tuple(x)


def enumerate_stream(
    level: Level,
    box: Box,
    ladder: DiagLadder,
    consumer: Consumer,
) -> int:
    """Stream every lattice point in the box through ``consumer``; return the count.

    Points are visited in lexicographic order of k.  The consumer receives an
    immutable :class:`LatticePoint` (value copies); exceptions it raises
    propagate and abort the traversal.  Points are produced in batches of
    ``_STREAM_ROWS`` rows, so memory does not grow with the number of
    emissions.
    """
    walk = _prepare(level, box, ladder)
    d = level.d
    new = tuple.__new__
    count = 0
    for K, X in _fill(walk, d, _STREAM_ROWS):
        count += len(K) // d
        ks, xs = iter(K.tolist()), iter(X.tolist())
        # d consecutive values per row; a LatticePoint without the Python frame of its __new__
        for point in zip(zip(*[ks] * d), zip(*[xs] * d)):
            consumer(new(LatticePoint, point))
    return count


def enumerate_batches(
    level: Level,
    box: Box,
    ladder: DiagLadder,
    size: int = 1024,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the lattice points in the box as ``(K, X)`` array batches.

    ``K`` (int64) and ``X`` (float64) have shape (m, d) with 1 <= m <= ``size``;
    every batch but the last has exactly ``size`` rows.  Rows follow the
    lexicographic k order of :func:`enumerate_stream`, and ``X`` is
    bit-identical to the streamed images.  The walker stops when a batch is
    full and resumes from its state for the next, so memory stays
    O(min(size, points) * d).  Arguments are checked by this call, before the
    first batch is asked for.
    """
    import numpy as np

    walk = _prepare(level, box, ladder)
    size = operator.index(size)
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    d = level.d
    return (
        (np.frombuffer(K, np.int64).reshape(-1, d), np.frombuffer(X, np.float64).reshape(-1, d))
        for K, X in _fill(walk, d, size)
    )


def count_points(level: Level, box: Box, ladder: DiagLadder) -> int:
    """Number of lattice points in the box, without storing or emitting them.

    Matches ``enumerate_stream`` with a counting consumer exactly; each
    innermost run of k_d is counted by its length, which is what makes large
    scales cheap.
    """
    return _call(*_prepare(level, box, ladder), None, None, 0)


#: Rows per batch behind :func:`enumerate_stream`.  Each batch is turned
#: into Python tuples at once, so this bounds the stream's memory (about
#: 150 KB at d = 8); 128 to 1024 rows cost the same per point.  Its buffers
#: start with ``_START_ROWS`` rows like any other, so an empty or small box
#: allocates 2 * 64 * d values.
_STREAM_ROWS = 256

#: Rows the first buffer pair of a call starts with (see :func:`_fill`).
#: ``array.array`` zeroes what it allocates, so a small start keeps a
#: small query cheap at every d: with 1024 rows, ``enumerate_batches`` on an
#: empty d = 64 box took 0.5 ms.
_START_ROWS = 64

#: One zero of each buffer type; ``_INT64 * n`` is a zeroed buffer of n values.
_INT64 = array("q", [0])
_FLOAT64 = array("d", [0.0])

#: How the walker is built: no option changes it.  ``-ffp-contract=off``
#: keeps every multiply and add a separately rounded IEEE operation.
_CC = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _prepare(level, box, ladder):
    """Check an entry point's arguments; return the walker's fixed arguments.

    The box must have the lattice dimension and the ladder must reach the
    level.  The result is (state, n, diagonals): a fresh state buffer that
    starts with the box corners, and the ladder's flat diagonal buffer.
    """
    if box.dimension != level.d:
        raise ValueError(f"box dimension {box.dimension} != lattice dimension {level.d}")
    if ladder.depth < level.n:
        raise ValueError(f"ladder depth {ladder.depth} < level {level.n}")
    n = level.n
    state = _state_type(n)()
    state[: 2 * level.d] = box.lower + box.upper
    return state, n, _diagonals(ladder, n)


def _fill(walk, d, size):
    """The one walker-call loop: a generator of filled buffers ``(K, X)``.

    K and X are memoryviews of the filled rows of an ``array.array`` pair of
    their own, int64 and float64, d values a row, row after row in the
    lexicographic k order; ``.tolist()`` gives them as Python numbers and
    ``np.frombuffer`` as arrays.  A pair holds at most ``size`` rows.  The
    first pair starts with at most ``_START_ROWS`` rows and each next pair
    as large as the last one grew; a pair doubles, up to ``size``, while the
    walk fills it, so a huge ``size`` costs no more than twice the rows
    written (or the first ``_START_ROWS``).  The walker gets the addresses from ``buffer_info``:
    passing arrays through ``ndarray.ctypes`` leaves reference cycles
    behind, which made a stream's peak memory drift.
    """
    capacity = min(size, _START_ROWS)
    while True:
        K = _INT64 * (capacity * d)
        X = _FLOAT64 * (capacity * d)
        rows = 0
        while True:
            offset = rows * d * K.itemsize
            K_next, X_next = K.buffer_info()[0] + offset, X.buffer_info()[0] + offset
            rows += _call(*walk, K_next, X_next, capacity - rows)
            if rows < capacity or capacity == size:
                break
            more = min(capacity, size - capacity)
            K += _INT64 * (more * d)
            X += _FLOAT64 * (more * d)
            capacity += more
        if rows:
            yield memoryview(K)[: rows * d], memoryview(X)[: rows * d]
        if rows < size:
            return


def _call(state, n, diag, K, X, size):
    """One walker call; raises ``ValueError`` where the walk cannot go on.

    The negative results are the ``WALK_RANGE`` and ``WALK_OVERFLOW`` codes
    of ``_walk.c``.
    """
    result = _library().walk(state, n, diag, K, X, size)
    if result < 0:
        raise ValueError(
            "the box is too large or too far from the origin: it has a corner"
            " beyond +-2**48 or needs lattice coordinates beyond +-2**62"
            if result == -1
            else "the point count exceeds 2**63 - 1"
        )
    return result


@lru_cache(maxsize=None)
def _state_type(n):
    """The ctypes array type of the walker's state at level n."""
    return ctypes.c_double * _library().walk_state_len(n)


@lru_cache(maxsize=64)
def _diagonals(ladder, n):
    """Levels 0..n-1 of the ladder as one flat buffer: level L at 2**L - 1.

    Keyed by the ladder, which caches its hash, so a call with a ladder seen
    before hashes none of its entries.
    """
    flat = [v for level in ladder.levels[:n] for v in level]
    for v in flat:  # the walker divides bounds by them: only positive ones keep lower <= upper
        if not 0.0 < v < math.inf:
            raise ValueError(f"ladder entries must be positive and finite, got {v!r}")
    return (ctypes.c_double * len(flat))(*flat)


@lru_cache(maxsize=None)
def _library():
    """The compiled walker, built from ``_walk.c`` on first use.

    The library is cached as ``__pycache__/_walk-<digest>.so`` beside this
    module, keyed by the source, the compile command, the interpreter's
    cache tag and the machine.  The digest is the keyed 64-bit hash of
    hash-based ``.pyc`` files (:func:`importlib.util.source_hash`), not
    SHA-256: ``hashlib`` loads OpenSSL, which adds 3.4 MB of resident memory
    to every process that counts.  It is compiled to a temporary name and moved
    into place, so concurrent processes may race to build it.  Where that
    directory is not writable, it is built in a private temporary directory,
    which is removed once the library is loaded.
    """
    import importlib.util
    import platform
    import tempfile

    source = Path(__file__).with_name("_walk.c")
    key = [source.read_bytes(), " ".join(_CC).encode()]
    key += [sys.implementation.cache_tag.encode(), platform.machine().encode()]
    digest = importlib.util.source_hash(b"\0".join(key)).hex()
    name = f"_walk-{digest}.so"
    path = source.parent / "__pycache__" / name
    private = False
    if not path.exists():
        try:
            path.parent.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=path.parent)
        except OSError:
            path = Path(tempfile.mkdtemp(prefix="chebfrolov-")) / name
            fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=path.parent)
            private = True
        os.close(fd)
        try:
            _compile(source, tmp)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(path))
    if private:  # a loaded library no longer needs its file
        os.unlink(path)
        os.rmdir(path.parent)
    ptr = ctypes.c_void_p
    lib.walk.argtypes = (ptr, ctypes.c_int, ptr, ptr, ptr, ctypes.c_int64)
    lib.walk.restype = ctypes.c_int64
    lib.walk_state_len.argtypes = (ctypes.c_int,)
    lib.walk_state_len.restype = ctypes.c_int64
    i64, f64 = ctypes.c_int64, ctypes.c_double
    lib.map_nodes.argtypes = (ptr, i64, i64, f64, ptr, ptr, f64)
    lib.map_nodes.restype = i64
    return lib


def _compile(source, target):
    """Compile the walker; ``RuntimeError`` with the compiler's words if it fails."""
    import subprocess

    try:
        proc = subprocess.run([*_CC, "-o", str(target), str(source)], capture_output=True, text=True)
    except OSError as exc:
        raise RuntimeError(f"cannot run the C compiler {_CC[0]!r}: {exc}") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-20:])
        raise RuntimeError(f"compiling {source.name} failed ({' '.join(_CC)}):\n{tail}")

