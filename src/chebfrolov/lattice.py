"""Permuted Chebyshev roots and the diagonal ladders of the generator.

For dimensions d = 2**n the lattice handled by this package is generated by
the Vandermonde matrix of the roots of the rescaled degree-d Chebyshev
polynomial 2*cos(d*arccos(x/2)).  Listing the roots in a particular
bit-reversal-style order turns the generator (up to an integer change of
basis) into the block-recursive matrix

    A_0 = (1),   A_{L+1} = ((A_L,  D_L A_L),
                            (A_L, -D_L A_L)),

where D_L is diagonal and positive.  The package only ever needs the
diagonals D_0..D_{n-1} (the "ladder"): the generator is applied by butterfly
merges over them, and the checks of :mod:`chebfrolov.verify` take its dense
rows from the images of the unit vectors.
"""

from __future__ import annotations

import math
import operator
from array import array

#: Highest recursion depth n (d = 2**n <= 64).  The walker's slacks are
#: measured on face boxes up to d = 64 and no further (the table in the
#: header of ``_walk.c``); past it counts can go wrong without an error.
MAX_LEVEL = 6


class _Value:
    """Base of the package's immutable value types, in place of frozen dataclasses.

    A subclass lists its fields as ``__slots__`` (a name starting with ``_``
    is a private slot, not a field), sets them once in its ``__init__``
    with ``object.__setattr__``, and keeps the dataclass contract: instances
    of the same class are equal and hash alike when their fields are, print
    as ``Name(field=value, ...)``, refuse assignment and deletion with
    ``AttributeError``, and pickle and copy through ``__init__``, which
    checks the copy like any new instance.  ``__match_args__`` names the
    fields.  The ``dataclasses`` module would cost every process that
    imports the package 10-24 ms of CPU time (CPython 3.11 on a 2-core Xeon,
    no bytecode cache): it imports ``inspect``, ``ast`` and ``dis``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.__match_args__ = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Level(_Value):
    """Recursion depth ``n``; the ambient dimension is ``d = 2**n``."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"level must be an integer, got {n!r}")
        if not 0 <= n <= MAX_LEVEL:
            raise ValueError(
                f"level {n} is outside [0, {MAX_LEVEL}]: d = 2**n must be at most"
                f" {1 << MAX_LEVEL}, where the walker's margins are measured"
            )
        object.__setattr__(self, "n", n)

    @property
    def d(self) -> int:
        return 1 << self.n

    @classmethod
    def from_dimension(cls, d: int) -> "Level":
        """Level for dimension ``d``; raises unless ``d`` is a power of two <= 64."""
        if isinstance(d, bool) or not hasattr(type(d), "__index__"):
            raise ValueError(f"dimension must be an integer, got {d!r}")
        d = operator.index(d)
        n = d.bit_length() - 1
        if d <= 0 or (1 << n) != d:
            raise ValueError(f"dimension must be a power of two, got {d}")
        return cls(n)


def root_permutation(n: int, k: int) -> int:
    """Position of the k-th root in the recursion-friendly ordering.

    Defined by ``perm(0, 1) = 1`` and, with d = 2**n, by keeping the first
    half and reflecting the second half through 2d + 1.  For every n the map
    ``k -> perm(n, k)`` is a bijection on {1, ..., 2**n}.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    d = 1 << n
    if not 1 <= k <= d:
        raise ValueError(f"index k={k} outside [1, {d}]")
    if n == 0:
        return 1
    half = d >> 1
    if k <= half:
        return root_permutation(n - 1, k)
    return d + 1 - root_permutation(n - 1, k - half)


def chebyshev_root(n: int, k: int) -> float:
    """The k-th permuted root: 2*cos(pi*(2*perm(n,k) - 1) / 2**(n+1)).

    All 2**n values are distinct roots of the rescaled Chebyshev polynomial
    2*cos(2**n * arccos(x/2)) and lie in (-2, 2).
    """
    pos = root_permutation(n, k)
    return 2.0 * math.cos(math.pi * (2 * pos - 1) / (1 << (n + 1)))


class DiagLadder(_Value):
    """Positive diagonals D_0..D_{n-1} linking consecutive block levels.

    ``levels[L]`` holds 2**L entries: the first half of the level-(L+1)
    permuted roots, all positive.  Squaring an entry and subtracting two
    reproduces the matching level-L root, which is what makes the block
    recursion close.  A level of another length, or an entry that is not
    positive and finite, raises ``ValueError``: the walker divides its
    bounds by the entries.  ``_flat``, a private read-only float64 buffer
    and not a field, holds the levels flat, level L from 2**L - 1, for the
    walker and ``apply_generator``.
    """

    __slots__ = ("levels", "_flat")

    def __init__(self, levels: tuple[tuple[float, ...], ...]) -> None:
        levels = tuple(tuple(float(v) for v in diag) for diag in levels)
        for L, diag in enumerate(levels):
            if len(diag) != 1 << L:
                raise ValueError(f"ladder level {L} must hold {1 << L} entries, got {len(diag)}")
        flat = array("d", [v for diag in levels for v in diag])
        for v in flat:
            if not 0.0 < v < math.inf:
                raise ValueError(f"ladder entries must be positive and finite, got {v!r}")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "_flat", memoryview(flat).toreadonly())

    @property
    def depth(self) -> int:
        return len(self.levels)


def build_diag_ladder(level: Level) -> DiagLadder:
    """Ladder of diagonals for all block merges up to ``level`` (empty for n=0)."""
    return DiagLadder(
        tuple(
            tuple(chebyshev_root(L + 1, k) for k in range(1, (1 << L) + 1))
            for L in range(level.n)
        )
    )


def det_magnitude(level: Level) -> float:
    """|det| of the generator in closed form: (2d)**(d/2) / sqrt(2)."""
    d = level.d
    return (2.0 * d) ** (d / 2.0) / math.sqrt(2.0)
