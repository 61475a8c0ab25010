"""Equal-weight cubature on shrunk lattice points, deterministic and randomized.

For a scale N > 0 the rule integrates f over the centered unit cube by
averaging f over the lattice points that fall in the symmetric box of
half-width 1/(2 s), mapped into the cube by x -> s*x, where the shrink
s = (|det| * N)**(-1/d) makes the box's volume N times the lattice's
covolume |det|, and the weight is exactly 1/N.  A box shifted uniformly at
random holds N nodes on average (N * prod(u) once dilated by u, below).
The standard box holds about N only where it is large against the
lattice, where N is large for its d: it holds the origin and every point
near its faces, 11,867 nodes at d = 32, N = 2**6 and 77 at d = 16, N = 2
(the golden table).

The randomized variant draws a diagonal dilation u in [1/2, 3/2]^d and a
lattice shift v in [0, 1]^d; its nodes are the lattice points of a dilated,
shifted box mapped by x -> s * (x + G v) / u componentwise (G v is the
generator image of the shift).  Averaging over shifts gives an unbiased
estimator of the integral.  The deterministic rule is this rule at u = 1,
v = 0, :meth:`RandomShift.identity`, and runs as it: its box, weight and
nodes are those of the identity shift, bit for bit (``-base - 0.0`` is
``-base``, ``w / 1.0`` is ``w``, and ``x + 0.0`` and ``x / 1.0`` are ``x``
for every image, which is never -0.0).

:func:`integrate` is the package's one node path: it maps each fill of the
walker in the compiled walker library (``map_nodes`` of ``_walk.c``, the one
formula), so it loads no numpy.
"""

from __future__ import annotations

import math
import random
from array import array
from typing import Callable, NamedTuple, Sequence

from .enumeration import Box, _fill, _library, apply_generator
from .lattice import DiagLadder, Level, _Value, det_magnitude

#: Evaluation contract for integrands: total on the closed centered unit cube.
Integrand = Callable[[tuple[float, ...]], float]

#: Slack allowed when checking that mapped nodes lie in the unit cube.
NODE_TOLERANCE = 1e-9


class ConsistencyError(RuntimeError):
    """A mapped node landed outside the tolerance-inflated unit cube."""


class CubatureSpec(_Value):
    """Level plus scale N; shrink and weight are derived.

    Invariants: ``shrink**d * |det| * N == 1`` and ``weight * N == 1`` up to
    relative 1e-12.  Scales whose shrink or box half-width 1/(2 shrink) is
    not a positive finite double are refused.
    """

    __slots__ = ("level", "scale")

    def __init__(self, level: Level, scale: float) -> None:
        s = float(scale)
        if not (math.isfinite(s) and s > 0.0):
            raise ValueError(f"scale must be a positive finite real, got {scale}")
        object.__setattr__(self, "level", level)
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


class RandomShift(_Value):
    """Dilation u in [1/2, 3/2]^d and lattice shift v in [0, 1]^d."""

    __slots__ = ("u", "v", "seed")

    def __init__(self, u: Sequence[float], v: Sequence[float], seed: int | None = None) -> None:
        u = tuple(float(t) for t in u)
        v = tuple(float(t) for t in v)
        if len(u) != len(v):
            raise ValueError(f"u and v lengths differ: {len(u)} vs {len(v)}")
        if not all(0.5 <= t <= 1.5 for t in u):
            raise ValueError("all dilation entries must lie in [1/2, 3/2]")
        if not all(0.0 <= t <= 1.0 for t in v):
            raise ValueError("all shift entries must lie in [0, 1]")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "seed", seed)

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
    from the master seed so they are mutually independent.  The seed is an
    integer >= 0, numpy's included, or ``ValueError``: ``random.Random``
    seeds from |seed|, so seed -k would repeat the shift of seed k, and a
    float seed would give a shift that no integer seed gives.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if not hasattr(seed, "__index__") or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    seed = int(seed)  # random.Random takes no numpy integer
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


class IntegrationResult(NamedTuple):
    value: float
    node_count: int


def integrate(
    spec: CubatureSpec,
    f: Integrand,
    ladder: DiagLadder,
    shift: RandomShift | None = None,
) -> IntegrationResult:
    """Weighted sum of f over the cubature nodes, plus the node count.

    The weight is 1/(N * prod(u)), the |det| of the dilated shrunk
    generator: its factor 1/prod(u), the dilation's volume change, keeps the
    estimator unbiased for every dilation.  Without a shift the rule is the
    deterministic one, run as :meth:`RandomShift.identity`, whose weight is
    1/N exactly.

    Nodes come from the walker's fills, as in :func:`enumerate_stream`: each
    fill is mapped in place to nodes shrink * (x + G v) / u in the walker
    library, separately rounded in that order, and checked there.  A node
    coordinate outside [-1/2, 1/2] by more than ``NODE_TOLERANCE`` (which
    would indicate an enumeration/mapping mismatch) raises
    :class:`ConsistencyError`, which names the first one.  The nodes are then
    fed to ``f`` one tuple at a time in lexicographic order, so only one fill
    is held, and an integrand that collects its arguments gets every node.
    The sum is a plain sequential ``+=``: ``sum()`` compensates on Python
    3.12+, which would change the value, and the plain sum's rounding stays
    orders of magnitude below the rule's own error.  No numpy is loaded.
    """
    d = spec.level.d
    if shift is None:
        shift = RandomShift.identity(d)
    box, shift_vector = randomized_box(spec, shift, ladder)
    node_weight = spec.weight / math.prod(shift.u)
    v, u = array("d", shift_vector), array("d", shift.u)
    s, bound = spec.shrink, 0.5 + NODE_TOLERANCE
    map_nodes = _library().map_nodes
    total = 0.0
    count = 0
    for _, X in _fill(spec.level, box, ladder):
        bad = map_nodes(X, d, s, v, u, bound)
        if bad >= 0:
            raise ConsistencyError(
                f"node coordinate {X[bad]!r} outside [-1/2, 1/2] beyond tolerance"
            )
        count += len(X) // d
        for fx in map(f, zip(*[iter(X.tolist())] * d)):
            total += fx
    return IntegrationResult(node_weight * total, count)
