"""Equal-weight cubature on shrunk lattice points, deterministic and randomized.

For a scale N > 0 the rule integrates f over the centered unit cube by
averaging f over the lattice points that fall in the symmetric box of
half-width 1/(2 s), mapped into the cube by x -> s*x, where the shrink
s = (|det| * N)**(-1/d) normalises the expected node count to about N and
the weight is exactly 1/N.

The randomized variant draws a diagonal dilation u in [1/2, 3/2]^d and a
lattice shift v in [0, 1]^d; its nodes are the lattice points of a dilated,
shifted box mapped by x -> s * (x + G v) / u componentwise (G v is the
generator image of the shift).  With u = 1, v = 0 it degenerates to the
deterministic rule bit-for-bit.  Averaging over shifts gives an unbiased
estimator of the integral.

The node map runs in the compiled walker library (``map_nodes`` of
``_walk.c``) on each fill of the walker, so :func:`integrate` and
:func:`map_to_unit` load no numpy.
"""

from __future__ import annotations

import ctypes
import math
import random
from array import array
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .enumeration import _STREAM_ROWS, Box, DiagLadder, _fill, _library, _prepare
from .enumeration import apply_generator
from .lattice import Level, det_magnitude

#: Evaluation contract for integrands: total on the closed centered unit cube.
Integrand = Callable[[tuple[float, ...]], float]

#: Slack allowed when checking that mapped nodes lie in the unit cube.
NODE_TOLERANCE = 1e-9


class ConsistencyError(RuntimeError):
    """A mapped node landed outside the tolerance-inflated unit cube."""


@dataclass(frozen=True)
class CubatureSpec:
    """Level plus scale N; shrink and weight are derived.

    Invariants: ``shrink**d * |det| * N == 1`` and ``weight * N == 1`` up to
    relative 1e-12.  Scales whose shrink or box half-width 1/(2 shrink) is
    not a positive finite double are refused.
    """

    level: Level
    scale: float

    def __post_init__(self) -> None:
        s = float(self.scale)
        if not (math.isfinite(s) and s > 0.0):
            raise ValueError(f"scale must be a positive finite real, got {self.scale}")
        object.__setattr__(self, "scale", s)
        try:
            shrink = self.shrink
        except OverflowError:
            shrink = math.inf
        if not (0.0 < shrink < math.inf and 0.5 / shrink < math.inf):
            raise ValueError(
                f"scale {self.scale} is out of range for d = {self.level.d}: "
                "the shrink or the box half-width is not a positive finite double"
            )

    @property
    def shrink(self) -> float:
        """Contraction factor applied to lattice points: (|det| N)**(-1/d)."""
        return (det_magnitude(self.level) * self.scale) ** (-1.0 / self.level.d)

    @property
    def weight(self) -> float:
        """Equal cubature weight |det of the shrunk generator| = 1/N."""
        return 1.0 / self.scale


@dataclass(frozen=True)
class RandomShift:
    """Dilation u in [1/2, 3/2]^d and lattice shift v in [0, 1]^d."""

    u: tuple[float, ...]
    v: tuple[float, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        u = tuple(float(t) for t in self.u)
        v = tuple(float(t) for t in self.v)
        if len(u) != len(v):
            raise ValueError(f"u and v lengths differ: {len(u)} vs {len(v)}")
        if not all(0.5 <= t <= 1.5 for t in u):
            raise ValueError("all dilation entries must lie in [1/2, 3/2]")
        if not all(0.0 <= t <= 1.0 for t in v):
            raise ValueError("all shift entries must lie in [0, 1]")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def dimension(self) -> int:
        return len(self.u)

    @classmethod
    def identity(cls, d: int) -> "RandomShift":
        """The do-nothing randomization: u = 1, v = 0."""
        return cls((1.0,) * d, (0.0,) * d)


def sample_shift(seed: int, d: int) -> RandomShift:
    """Deterministic seeded shift: u uniform on [1/2, 3/2]^d, v on [0, 1]^d.

    Uses the stdlib Mersenne Twister (``random.Random``), whose streams are
    stable across CPython releases; u and v come from two substreams derived
    from the master seed so they are mutually independent.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    master = random.Random(seed)
    rng_u = random.Random(master.getrandbits(64))
    rng_v = random.Random(master.getrandbits(64))
    u = tuple(0.5 + rng_u.random() for _ in range(d))
    v = tuple(rng_v.random() for _ in range(d))
    return RandomShift(u, v, seed)


def standard_box(spec: CubatureSpec) -> Box:
    """Symmetric box of half-width 1/(2 shrink); its lattice points biject to the nodes."""
    hw = 0.5 / spec.shrink
    return Box.symmetric(hw, spec.level.d)


def randomized_box(
    spec: CubatureSpec, shift: RandomShift, ladder: DiagLadder
) -> tuple[Box, tuple[float, ...]]:
    """Dilated, shifted enumeration box for the randomized rule.

    Returns the box with corners -+(u_i / (2 shrink)) - (G v)_i together with
    the generator image G v of the shift, computed by the same butterfly
    merges the streaming traversal uses.  The box is never empty.
    """
    d = spec.level.d
    if shift.dimension != d:
        raise ValueError(f"shift dimension {shift.dimension} != lattice dimension {d}")
    shift_vector = apply_generator(ladder, shift.v)
    base = 0.5 / spec.shrink
    lower = tuple(-(base * ui) - avi for ui, avi in zip(shift.u, shift_vector))
    upper = tuple(base * ui - avi for ui, avi in zip(shift.u, shift_vector))
    return Box(lower, upper), shift_vector


def map_to_unit(
    x: Sequence[float],
    spec: CubatureSpec,
    shift: RandomShift | None = None,
    shift_vector: Sequence[float] | None = None,
) -> tuple[float, ...]:
    """Map an enumerated lattice point to its cubature node in [-1/2, 1/2]^d.

    Deterministic rule: node = shrink * x.  Randomized rule: node =
    shrink * (x + shift_vector) / u componentwise.  x must have the lattice
    dimension.  Raises :class:`ConsistencyError` if the result leaves the
    cube by more than ``NODE_TOLERANCE`` (which would indicate an
    enumeration/mapping mismatch).
    """
    if shift is not None and shift_vector is None:
        raise ValueError("shift_vector is required when a shift is given")
    node = array("d", x)
    if len(node) != spec.level.d:
        raise ValueError(f"point dimension {len(node)} != lattice dimension {spec.level.d}")
    _node_map(spec, shift, shift_vector)(node)
    return tuple(node)


def _node_map(spec, shift, shift_vector):
    """The node map of :func:`map_to_unit` on whole buffers, as one function.

    The function maps a filled float64 buffer of rows of d images in place,
    in the compiled walker library (``map_nodes`` of ``_walk.c``, the same
    IEEE operations in the same order), and raises
    :class:`ConsistencyError` naming the first mapped coordinate outside
    the cube by more than ``NODE_TOLERANCE``, read when the map is made.
    """
    d = spec.level.d
    if shift is None:
        v = u = None
    else:
        if not len(shift.u) == len(shift_vector) == d:
            raise ValueError(
                f"shift dimension {len(shift.u)} or shift vector length {len(shift_vector)}"
                f" != lattice dimension {d}"
            )
        v = (ctypes.c_double * d)(*shift_vector)
        u = (ctypes.c_double * d)(*shift.u)
    s = spec.shrink
    bound = 0.5 + NODE_TOLERANCE
    map_nodes = _library().map_nodes
    address = ctypes.addressof
    first = ctypes.c_double.from_buffer

    def apply(X):
        bad = map_nodes(address(first(X)), len(X), d, s, v, u, bound)
        if bad >= 0:
            c = X[bad]
            raise ConsistencyError(f"node coordinate {c!r} outside [-1/2, 1/2] beyond tolerance")

    return apply


class IntegrationResult(NamedTuple):
    value: float
    node_count: int


def integrate(
    spec: CubatureSpec,
    f: Integrand,
    ladder: DiagLadder,
    shift: RandomShift | None = None,
    *,
    compensated: bool = False,
) -> IntegrationResult:
    """Weighted sum of f over the cubature nodes, plus the node count.

    The deterministic weight is 1/N.  For a randomized shift the weight also
    carries the dilation's volume change: 1/(N * prod(u)), the |det| of the
    dilated shrunk generator, which keeps the estimator unbiased for every
    dilation (the identity shift reproduces the deterministic value
    bit-for-bit).

    Nodes come from the walker's fills, as in :func:`enumerate_stream`: each
    fill is mapped into the unit cube and checked in the walker library, by
    the map of :func:`map_to_unit`, then fed to ``f`` one node tuple at a
    time in lexicographic order, so only one fill is held.  The sum is a
    plain sequential ``+=`` (``sum()`` compensates on Python 3.12+, which
    would change the value); ``compensated`` switches it to Kahan summation.
    No numpy is loaded.
    """
    level = spec.level
    if shift is None:
        box = standard_box(spec)
        shift_vector: tuple[float, ...] | None = None
        node_weight = spec.weight
    else:
        box, shift_vector = randomized_box(spec, shift, ladder)
        node_weight = spec.weight / math.prod(shift.u)
    d = level.d
    node_map = _node_map(spec, shift, shift_vector)
    total = 0.0
    carry = 0.0
    count = 0
    for _, X in _fill(_prepare(level, box, ladder), d, _STREAM_ROWS):
        node_map(X)
        count += len(X) // d
        values = map(f, zip(*[iter(X.tolist())] * d))
        if compensated:
            for fx in values:
                y = fx - carry
                t = total + y
                carry = (t - total) - y
                total = t
        else:
            for fx in values:
                total += fx
    return IntegrationResult(node_weight * total, count)
