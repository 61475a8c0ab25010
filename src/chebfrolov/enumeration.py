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

- ``enumerate_batches`` fills ``(K, X)`` arrays, each image finished by the
  last butterfly chain; the walk stops when a batch is full and resumes
  from its state buffer for the next.  ``enumerate_stream`` takes the same
  batches and calls a consumer per point.  A fill sets k_1..k_d in
  lexicographic order, mean-first: the first half-block image lies between
  the half-means of the corners, and once it is fixed the second is clamped
  to residual bounds with the level diagonal divided out.
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
same lexicographic order of k.  The bounds that prune the search differ:
a count's are its own, and so is its slack.
A box with a corner beyond +-2**48, where the slack would reach a quarter
in a fill and 2 in a count, or one that needs a coordinate beyond +-2**62
is refused with ``ValueError``, unless it is empty (lower > upper in some
coordinate).
"""

from __future__ import annotations

import ctypes
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
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
) -> int:
    """Stream every lattice point in the box through ``consumer``; return the count.

    Points are visited in lexicographic order of k.  The consumer receives an
    immutable :class:`LatticePoint` (value copies); exceptions it raises
    propagate and abort the traversal.  Points are produced in batches of
    ``_STREAM_ROWS`` rows, so memory does not grow with the number of
    emissions.
    """
    walk = _prepare(level, box, ladder)
    new = tuple.__new__
    count = 0
    for K, X in _fill(walk, level.d, _STREAM_ROWS):
        for k, x in zip(K.tolist(), X.tolist()):
            # builds a LatticePoint without the Python frame of its __new__
            consumer(new(LatticePoint, (tuple(k), tuple(x))))
        count += len(K)
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
    walk = _prepare(level, box, ladder)
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    return _fill(walk, level.d, size)


def count_points(level: Level, box: Box, ladder: DiagLadder) -> int:
    """Number of lattice points in the box, without storing or emitting them.

    Matches ``enumerate_stream`` with a counting consumer exactly; each
    innermost run of k_d is counted by its length, which is what makes large
    scales cheap.
    """
    return _call(*_prepare(level, box, ladder), None, None, 0)


#: Rows per walker call behind :func:`enumerate_stream`.  Each batch is
#: turned into Python lists at once, so this bounds the stream's memory
#: (about 150 KB at d = 8); 128 to 1024 rows cost the same per point.
_STREAM_ROWS = 256

#: Rows a batch buffer starts with (see :func:`_fill`).
_START_ROWS = 1 << 16

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
    return state, n, _diagonals(ladder.levels[:n])


def _fill(walk, d, size):
    """Generator of ``(K, X)`` batches, each in buffers of its own.

    A buffer starts with at most ``_START_ROWS`` rows and doubles, up to
    ``size``, while the walk fills it, so a huge ``size`` costs only the
    rows written.
    """
    while True:
        K = np.empty((min(size, _START_ROWS), d), dtype=np.int64)
        X = np.empty(K.shape, dtype=np.float64)
        rows = 0
        while True:
            rows += _call(*walk, _address(K, rows), _address(X, rows), len(K) - rows)
            if rows < len(K) or len(K) == size:
                break
            more = min(len(K), size - len(K))
            K = np.concatenate((K, np.empty((more, d), dtype=np.int64)))
            X = np.concatenate((X, np.empty((more, d), dtype=np.float64)))
        if rows:
            yield K[:rows], X[:rows]
        if rows < size:
            return


def _address(A, row):
    """Address of row ``row`` of the C-contiguous array A.

    Taken from ``__array_interface__``: ``ndarray.ctypes`` leaves objects in
    reference cycles behind, which made a stream's peak memory drift by
    kilobytes between runs.
    """
    return A.__array_interface__["data"][0] + row * A.strides[0]


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
def _diagonals(diag):
    """The ladder levels ``diag`` as one flat buffer: level L at 2**L - 1."""
    flat = [v for level in diag for v in level]
    for v in flat:
        if not math.isfinite(v):
            raise ValueError(f"ladder entries must be finite, got {v!r}")
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
