"""Enumeration of generator-lattice points inside axis-parallel boxes.

A box constraint in dimension 2**(L+1) splits into two constraints in
dimension 2**L, one per half-block of the image (A + D*Y, A - D*Y).  One
traversal runs that reduction in constant memory: nested integer loops over
the coordinates of k, with partial generator images maintained by FFT-style
butterfly merges.  It is written in C (``_walk.c``, table-driven: d, the
ladder and the box are arguments; its header describes the walk's orders,
slacks and search tree), a CPython extension module that ``cc`` compiles
with the interpreter's headers on first use, cached on disk and loaded as
``chebfrolov._walk``, not through ctypes; importing the package compiles
and loads nothing.  The first :class:`Box` of a process loads it, as the
module reads every box's corners, each value as ``float()`` reads it.

The box is closed: a point is in it iff its :func:`apply_generator` image x
has ``lower <= x <= upper``.  :func:`count_points`,
:func:`enumerate_stream` and :func:`enumerate_batches` keep the same
points; the stream and the batches emit them in lexicographic order of k,
with images bit-identical to :func:`apply_generator`.
:func:`apply_generator` runs the walk's own merges on one vector in the
same module, and so does the oracle of :mod:`~chebfrolov.verify` on each of
its candidates: the package has one image arithmetic.

Each entry point is one call into the module with the box corners, the
ladder and n.  The ladder is the flat buffer of :class:`DiagLadder`, which
checks its levels once, when it is made, level L from offset 2**L - 1.  The
module refuses, with ``ValueError`` and in this order: a level above
``lattice.MAX_LEVEL``, a box of another dimension (``box dimension 3 !=
lattice dimension 4``), a ladder too shallow for the level (``ladder depth
1 < level 2``), and, for the batches, a batch size below 1 (``TypeError``
if it is no integer).  A box with a corner at or beyond +-2**48 is refused
with ``ValueError`` at the call, unless it is empty (lower > upper in some
coordinate); so is one that needs a coordinate beyond +-2**62, once the
walk reaches it.

The module releases the GIL around every call of the C walk (a whole
count, one fill, or one chunk of a stream), so other threads run
meanwhile.  A count runs to its end before Ctrl-C takes effect; a stream
walks 1024 / d points at a time and stops before the next point it would
deliver.  A fill writes up to its batch size of rows of k and x and stops;
the next resumes from the walk's state, which the module owns with the
ladder and the batch size the walk was made with.  Each fill returns its
rows in a new int64 and float64 pair, an empty one once the walk is done;
``_fill`` yields them, and ``enumerate_batches`` wraps each as ``(K, X)``
numpy arrays, without a copy.  ``enumerate_stream`` is one call of the
module's ``stream``, which hands each row to the consumer as a
:class:`LatticePoint`, without numpy.

The same module holds ``map_nodes``, the node map of :func:`integrate`,
and ``format_rows``, the CSV text of the CLI's ``points``, which
:mod:`~chebfrolov.cubature` and :mod:`~chebfrolov.cli` call directly on the
module :func:`_library` returns, as the oracle of :mod:`~chebfrolov.verify`
calls its ``apply_generator``; only :func:`_library` loads it.
Numpy is imported only by ``enumerate_batches``, the one function of the
package that builds arrays, so counting, streaming, filling,
:func:`apply_generator` and every check of :mod:`~chebfrolov.verify` run
without it.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

from .lattice import DiagLadder, Level, _Value

if TYPE_CHECKING:
    import numpy as np


class Box(_Value):
    """Axis-parallel box [lower, upper]; may be empty in some coordinates.

    The walker's module reads the corners, each value as ``float()`` reads
    it, into two tuples of floats, and refuses in this order: a corner that
    is not iterable or a value that ``float()`` refuses, with their own
    errors; corners of unequal lengths (``ValueError``); a NaN or an
    infinity (``ValueError``).  So the first box of a process loads the
    module, which compiles it on a cold cache; importing the package still
    loads nothing.
    """

    __slots__ = ("lower", "upper")

    def __init__(self, lower: Sequence[float], upper: Sequence[float]) -> None:
        lo, hi = _library().box(lower, upper)
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

    Runs the traversal's merge tree on the vector, each coordinate taken as
    ``float()`` takes it, in the walker's module: round j maps each pair of
    2**(j-1)-blocks (A, Y) to (A + D*Y, A - D*Y), each entry as
    ``p = D[i] * y; a + p; a - p``.  These are the walker's operations, so
    for integer coords the result matches emitted point images bit-for-bit;
    the oracle calls the same merges on each candidate.  The diagonals are
    the ladder's flat buffer, the one the walker copies; the module checks
    its depth, with the words of :func:`count_points`.
    """
    d = len(coords)
    n = d.bit_length() - 1
    if d <= 0 or (1 << n) != d:
        raise ValueError(f"vector length must be a power of two, got {d}")
    return _library().apply_generator(ladder._flat, coords, n)


def enumerate_stream(
    level: Level,
    box: Box,
    ladder: DiagLadder,
    consumer: Consumer,
) -> int:
    """Stream every lattice point in the box through ``consumer``; return the count.

    Points are visited in lexicographic order of k.  The consumer receives an
    immutable :class:`LatticePoint` (value copies); exceptions it raises
    propagate and abort the traversal.  The walker makes each point just
    before the consumer gets it and keeps none, so memory does not grow with
    the number of emissions.  It walks 1024 / d points at a time with the GIL
    released, and Ctrl-C stops the stream before the next point it delivers.
    """
    return _library().stream(box.lower, box.upper, ladder._flat, level.n, LatticePoint, consumer)


#: Rows per fill by default, of ``enumerate_batches`` and of ``_fill``
#: (``integrate``, the CLI's ``points`` and the double-box check): the rows
#: the walker's buffer pair starts with (``FILL_ROWS`` of ``_walk.c``).
_FILL_ROWS = 1024


def enumerate_batches(
    level: Level,
    box: Box,
    ladder: DiagLadder,
    size: int = _FILL_ROWS,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the lattice points in the box as ``(K, X)`` array batches.

    ``K`` (int64) and ``X`` (float64) have shape (m, d) with 1 <= m <= ``size``;
    every batch but the last has exactly ``size`` rows.  Rows follow the
    lexicographic k order of :func:`enumerate_stream`, and ``X`` is
    bit-identical to the streamed images.  The walker stops when a batch is
    full and resumes from its state for the next, so memory stays
    O(min(size, points) * d); each batch's arrays are writable views of a
    buffer pair of its own, which nothing else holds.  A size beyond the
    rows a buffer can hold, ``sys.maxsize // (8 * d)``, means that many.
    The walk is made by this call, so a bad box, and then a bad size
    (``TypeError`` if it is no integer, ``ValueError`` below 1), raise here,
    before the first batch is asked for.
    """
    import numpy as np

    fills = _fill(level, box, ladder, size)
    d = level.d
    return (
        (np.frombuffer(K, np.int64).reshape(-1, d), np.frombuffer(X, np.float64).reshape(-1, d))
        for K, X in fills
    )


def count_points(level: Level, box: Box, ladder: DiagLadder) -> int:
    """Number of lattice points in the box, without storing or emitting them.

    Matches ``enumerate_stream`` with a counting consumer exactly; each
    innermost run of integers is counted by its length, which is what makes
    large scales cheap.  A box symmetric about 0 walks half the search tree,
    a quarter if the halves of each corner are equal too.
    """
    return _library().count(box.lower, box.upper, ladder._flat, level.n)


#: How the walker is built, before the include flags of the interpreter's
#: headers (see :func:`_build_command`): no option changes it.
#: ``-ffp-contract=off`` keeps every multiply and add a separately rounded
#: IEEE operation.
_CC = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _fill(level, box, ladder, size=_FILL_ROWS):
    """Make the walk of the box; return the generator of its fills.

    Each fill ``(K, X)`` is a pair of memoryviews, int64 and float64, of up
    to ``size`` rows of d values in the lexicographic k order, in buffers of
    its own that the walker sized.  The walker checks the box, then the
    size, and keeps the size with the walk, so a bad argument raises at this
    call.
    """
    return _fills(_library().state(box.lower, box.upper, ladder._flat, level.n, size))


def _fills(state):
    """The generator behind :func:`_fill`: fills until the walk returns an empty one."""
    fill = _library().fill
    while True:
        K, X = fill(state)
        if not K:
            return
        yield memoryview(K).cast("q"), memoryview(X).cast("d")


@lru_cache(maxsize=None)
def _library():
    """The walker's extension module ``chebfrolov._walk``, built from ``_walk.c`` on first use.

    The module is cached as ``__pycache__/_walk-<tag>-<digest>.so`` beside
    this module, ``<tag>`` the interpreter's cache tag (``cpython-311``).
    The digest covers the source, the compile command, the cache tag and
    extension suffix, which names the ABI, and the machine
    (``os.uname().machine``, the string ``platform.machine()`` gives on
    POSIX, without importing ``platform``), but not the include directories:
    :mod:`sysconfig` is imported only to build it.  The digest is the keyed
    64-bit hash of hash-based ``.pyc`` files (:func:`importlib.util.source_hash`),
    not SHA-256: ``hashlib`` loads OpenSSL, which adds 3.4 MB of resident
    memory to every process that counts.  The module is compiled to a
    temporary name and moved into place, so concurrent processes may race to
    build it; then the other builds of its tag, which edits of the source
    left, are removed, and those of other interpreters stay.  Where that
    directory is not writable, it is built in a private temporary directory,
    which is removed once the module is loaded.
    """
    import contextlib
    import importlib.machinery
    import importlib.util
    import tempfile
    from pathlib import Path

    source = Path(__file__).with_name("_walk.c")
    abi = importlib.machinery.EXTENSION_SUFFIXES[0]
    tag = sys.implementation.cache_tag
    key = [source.read_bytes(), " ".join(_CC).encode(), tag.encode()]
    key += [abi.encode(), os.uname().machine.encode()]
    digest = importlib.util.source_hash(b"\0".join(key)).hex()
    name = f"_walk-{tag}-{digest}.so"
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
        for old in path.parent.glob(f"_walk-{tag}-*.so"):
            if old != path:  # a process that has it loaded keeps its mapping
                with contextlib.suppress(OSError):
                    old.unlink()
    loader = importlib.machinery.ExtensionFileLoader(f"{__package__}._walk", str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(loader.name, path, loader=loader)
    )
    loader.exec_module(module)
    if private:  # a loaded module no longer needs its file
        os.unlink(path)
        os.rmdir(path.parent)
    return module


def _build_command(source, target):
    """The compile command of the walker: ``_CC``, the interpreter's include
    directories and the files."""
    import sysconfig

    includes = dict.fromkeys(sysconfig.get_path(name) for name in ("include", "platinclude"))
    return [*_CC, *(f"-I{path}" for path in includes), "-o", str(target), str(source)]


def _compile(source, target):
    """Compile the walker; ``RuntimeError`` with the compiler's words if it fails,
    such as a missing ``Python.h``."""
    import subprocess

    try:
        proc = subprocess.run(_build_command(source, target), capture_output=True, text=True)
    except OSError as exc:
        raise RuntimeError(f"cannot run the C compiler {_CC[0]!r}: {exc}") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-20:])
        raise RuntimeError(f"compiling {source.name} failed ({' '.join(_CC)}):\n{tail}")

