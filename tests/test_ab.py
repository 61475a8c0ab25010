"""``tools/ab.py``, the per-call A/B harness of the walker, runs on this tree."""

import importlib.util
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
    assert len({name for name, _ in grid}) == len(grid)
    for name, call in grid:
        assert ab.same(call(walk), call(walk)), name


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
