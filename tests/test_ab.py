"""``tools/ab.py``, the per-call A/B harness of the walker, runs on this tree."""

import importlib.util
from array import array
from pathlib import Path

import pytest

from chebfrolov import LatticePoint
from chebfrolov.enumeration import _library

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py"
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_every_case_runs_and_agrees_with_itself():
    walk = _library()
    grid = ab.cases(walk)
    assert len({name for name, _, _ in grid}) == len(grid)
    for _, call, _ in grid:
        call(walk)
    assert ab.differing(grid, walk, walk) == []


class _NegatedNodes:
    """The walker module, but its ``map_nodes`` negates every node it writes."""

    def __init__(self, walk):
        self._walk = walk

    def __getattr__(self, name):
        return getattr(self._walk, name)

    def map_nodes(self, Y, *args):
        index = self._walk.map_nodes(Y, *args)
        Y[:] = array("d", [-y for y in Y])
        return index


def test_agreement_check_sees_wrong_nodes():
    # map_nodes writes in place and returns only an index, so the nodes
    # themselves must be compared
    walk = _library()
    grid = ab.cases(walk)
    assert ab.differing(grid, walk, _NegatedNodes(walk)) == [
        name for name, _, _ in grid if name.startswith("map_nodes")
    ]


@pytest.mark.parametrize(
    "x, y",
    [
        ([LatticePoint((0,), (0.0,))], [LatticePoint((0,), (-0.0,))]),  # stream rows
        ((1.0, 0.0), (1.0, -0.0)),  # apply_generator's image
    ],
)
def test_agreement_check_sees_the_sign_of_zero(x, y):
    assert x == y  # what Python's == says
    assert ab.same(x, x) and not ab.same(x, y)


def test_agreement_check_sees_other_differences():
    assert not ab.same([(b"K", b"X")], [(b"K", b"Y")])
    assert not ab.same([LatticePoint((0,), (0.0,))], [LatticePoint((1,), (0.0,))])
    assert not ab.same(3, 4)
