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


class _Without:
    """The walker module without one of its entry points, as an older build."""

    def __init__(self, walk, entry):
        self._walk, self._entry = walk, entry

    def __getattr__(self, name):
        if name == self._entry:
            raise AttributeError(name)
        return getattr(self._walk, name)


def test_cases_a_build_lacks_are_named_with_the_builds():
    walk = _library()
    grid, old = ab.cases(walk), _Without(walk, "box")
    boxes = [name for name, _, _ in grid if name.split()[0] == "box"]
    assert boxes == ["box d=2", "box d=8", "box d=16"]
    assert ab.missing(grid, old, walk) == dict.fromkeys(boxes, "A")
    assert ab.missing(grid, walk, old) == dict.fromkeys(boxes, "B")
    assert ab.missing(grid, old, old) == dict.fromkeys(boxes, "A and B")
    assert ab.missing(grid, walk, walk) == {}


def test_main_times_the_cases_both_builds_have(monkeypatch, capsys):
    walk = _library()
    builds = {"a": _Without(walk, "box"), "b": walk}
    monkeypatch.setattr(ab, "build", lambda label, revision, workdir: builds[label])
    monkeypatch.setattr(ab.os, "sched_setaffinity", lambda pid, cores: None)
    monkeypatch.setattr(ab, "SAMPLE_S", 0.0)
    assert ab.main(["--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for d in (2, 8, 16):
        assert f"box d={d}: not in A, not timed" in lines
        assert not [line for line in lines if line.startswith(f"box d={d} ")]
    timed = [line.split("  ")[0] for line in lines if line.endswith(tuple("0123456789"))]
    assert [name for name, _, _ in ab.cases(walk) if not name.startswith("box")] == timed
