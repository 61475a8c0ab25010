import _thread
import copy
import datetime
import gc
import importlib.machinery
import importlib.util
import itertools
import math
import operator
import os
import pickle
import random
import re
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chebfrolov
from chebfrolov import (
    Box,
    CubatureSpec,
    DiagLadder,
    LatticePoint,
    Level,
    apply_generator,
    build_diag_ladder,
    count_points,
    enumerate_batches,
    enumerate_stream,
    integrate,
    oracle_enumerate,
    randomized_box,
    sample_shift,
    standard_box,
)
from chebfrolov.lattice import MAX_LEVEL, chebyshev_root, root_permutation
from chebfrolov import enumeration
from chebfrolov.enumeration import _library
from lattice_reference import (
    _clamp_bounds,
    _interval_mean,
    build_generator_matrix,
    random_box,
    recursive_enumerate,
)

SQRT2 = math.sqrt(2.0)


def collect(level, box, ladder):
    points = []
    enumerate_stream(level, box, ladder, points.append)
    return points


def cubature_box(n, scale):
    return standard_box(CubatureSpec(Level(n), float(scale)))


class TestBox:
    def test_basic(self):
        box = Box((-1.0, 0.0), (1.0, 2.0))
        assert box.dimension == 2
        assert box.lower == (-1.0, 0.0)

    def test_symmetric(self):
        box = Box.symmetric(1.5, 4)
        assert box.lower == (-1.5,) * 4
        assert box.upper == (1.5,) * 4

    def test_rejects_nan_and_inf(self):
        for bad in (math.nan, math.inf, -math.inf, "nan", "-inf"):
            for lower, upper in (((bad, 0.0), (1.0, 1.0)), ((0.0, 0.0), (1.0, bad))):
                with pytest.raises(ValueError, match=r"^box corners must be finite \(no NaN/inf\)$"):
                    Box(lower, upper)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="^corner lengths differ: 2 vs 1$"):
            Box((0.0, 1.0), (2.0,))
        with pytest.raises(ValueError, match="^corner lengths differ: 0 vs 3$"):
            Box((), iter([1.0, 2.0, 3.0]))

    def test_refuses_what_float_refuses_with_its_words(self):
        for value in ("x", "", None, [1.0], 1j, object()):
            with pytest.raises((TypeError, ValueError)) as refused:
                float(value)
            words = f"^{re.escape(str(refused.value))}$"
            for lower, upper in (((value, 0.0), (1.0, 1.0)), ((0.0, 0.0), (1.0, value))):
                with pytest.raises(refused.type, match=words):
                    Box(lower, upper)
        for lower, upper in ((5, (1.0,)), ((1.0,), 5)):
            with pytest.raises(TypeError, match="^'int' object is not iterable$"):
                Box(lower, upper)

    def test_refusals_come_in_order(self):
        # what float() refuses, in either corner, before unequal lengths
        with pytest.raises(ValueError, match="^could not convert string to float: 'x'$"):
            Box((0.0, "x"), (1.0,))
        with pytest.raises(ValueError, match="^could not convert string to float: 'y'$"):
            Box((0.0, 1.0), ("y",))
        # the lower corner is read whole before the upper one
        with pytest.raises(ValueError, match="^could not convert string to float: 'x'$"):
            Box((0.0, "x"), 5)
        with pytest.raises(ValueError, match="^could not convert string to float: 'x'$"):
            Box(("x",), ("y",))
        # unequal lengths before a NaN or an inf, in either corner
        with pytest.raises(ValueError, match="^corner lengths differ: 2 vs 1$"):
            Box((math.nan, 0.0), (1.0,))
        with pytest.raises(ValueError, match="^corner lengths differ: 1 vs 2$"):
            Box((0.0,), (math.inf, 1.0))

    def test_takes_what_float_takes(self):
        class Real(float):
            pass

        class Corner(tuple):
            pass

        values = [0, True, "1e-3", "-1_000", np.float32(0.5), np.int64(-3), Real(2.5), -0.0]
        box = Box(Corner(values), (v for v in values))  # a one-shot iterator
        expected = (0.0, 1.0, 0.001, -1000.0, 0.5, -3.0, 2.5, -0.0)
        for corner in (box.lower, box.upper):
            assert type(corner) is tuple and all(type(v) is float for v in corner)
            assert struct.pack("8d", *corner) == struct.pack("8d", *expected)
        exact = (0.25, -1.5)
        assert Box(exact, exact).lower == exact and Box(list(exact), iter(exact)).upper == exact

    def test_compares_hashes_pickles_and_copies_by_its_corners(self):
        box = Box((-1.0, 0.5), (1.0, 2.0))
        same = Box([-1, "0.5"], iter((1, 2)))
        assert same == box and hash(same) == hash(box) and same is not box
        assert box != Box((-1.0, 0.5), (1.0, 2.5)) and box != (box.lower, box.upper)
        assert repr(box) == "Box(lower=(-1.0, 0.5), upper=(1.0, 2.0))"
        for copied in (pickle.loads(pickle.dumps(box)), copy.copy(box), copy.deepcopy(box)):
            assert type(copied) is Box and copied == box and hash(copied) == hash(box)
            assert copied.lower == box.lower and copied.upper == box.upper

    def test_empty_allowed(self):
        box = Box((1.0,), (-1.0,))
        assert box.lower[0] > box.upper[0]


class TestIntervalMean:
    def test_scalar_pair(self):
        assert _interval_mean(0, (2.0, 4.0)) == (3.0,)

    def test_equal_halves(self):
        assert _interval_mean(0, (-1.0, -1.0)) == (-1.0,)

    def test_vector_halves(self):
        assert _interval_mean(1, (0.0, 2.0, 4.0, 6.0)) == (2.0, 4.0)


class TestClampBounds:
    def test_centered_anchor(self):
        ladder = build_diag_ladder(Level(1))
        lo, hi = _clamp_bounds(0, (0.0,), (-1.0, -1.0), (1.0, 1.0), ladder)
        assert lo == pytest.approx((-1.0 / SQRT2,), abs=1e-15)
        assert hi == pytest.approx((1.0 / SQRT2,), abs=1e-15)

    def test_shifted_anchor_pinches_to_point(self):
        ladder = build_diag_ladder(Level(1))
        lo, hi = _clamp_bounds(0, (1.0,), (-1.0, -1.0), (1.0, 1.0), ladder)
        assert lo == (0.0,)
        assert hi == (0.0,)

    def test_degenerate_box(self):
        ladder = build_diag_ladder(Level(1))
        anchor = _interval_mean(0, (0.0, 0.0))
        lo, hi = _clamp_bounds(0, anchor, (0.0, 0.0), (0.0, 0.0), ladder)
        assert lo == (0.0,)
        assert hi == (0.0,)

    def test_nonempty_whenever_anchor_between_means(self):
        # for lower <= upper and anchor between the half-means, lo <= hi
        rng = random.Random(7)
        ladder = build_diag_ladder(Level(3))
        for _ in range(200):
            L = rng.choice([0, 1, 2])
            half = 1 << L
            box = random_box(rng, 2 * half)
            mb = _interval_mean(L, box.lower)
            mc = _interval_mean(L, box.upper)
            anchor = tuple(rng.uniform(a, b) for a, b in zip(mb, mc))
            lo, hi = _clamp_bounds(L, anchor, box.lower, box.upper, ladder)
            assert all(x <= y for x, y in zip(lo, hi))

    def test_missing_ladder_level(self):
        # a level-1 ladder holds level 0 only
        ladder = build_diag_ladder(Level(1))
        with pytest.raises(IndexError):
            _clamp_bounds(1, (0.0, 0.0), (0.0,) * 4, (1.0,) * 4, ladder)


def reference_apply_generator(ladder, coords):
    """``apply_generator`` as a Python loop over a list, the reference of the
    compiled one: the same checks, and the same merges in the same order."""
    d = len(coords)
    n = d.bit_length() - 1
    if d <= 0 or (1 << n) != d:
        raise ValueError(f"vector length must be a power of two, got {d}")
    if ladder.depth < n:
        raise ValueError(f"ladder depth {ladder.depth} < level {n}")
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


def outcome(fn, *args):
    """The bytes of a tuple of floats ``fn`` returns, or the type and text of what it raises.

    Every NaN is packed as the one NaN ``math.nan``: IEEE 754 leaves the sign
    and payload of the NaN of inf - inf or 0 * inf to the hardware and to
    the operand order a compiler picks for ``a + b``, which may differ
    between the interpreter's float operations and the module's.
    """
    try:
        x = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(x), struct.pack(f"{len(x)}d", *(math.nan if v != v else v for v in x))


#: Coordinates ``float()`` takes or refuses: every real, ints past the
#: float range, and strings.
COORDINATES = st.one_of(
    st.floats(),
    st.integers(-(2**1100), 2**1100),
    st.sampled_from(["1.5", " -2e300 ", "nan", "-inf", "x", ""]),
)


#: Every positive, finite double, subnormals included: the entries a ladder takes.
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


class TestApplyGenerator:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(0, 6), extra=st.integers(0, 2))
    def test_matches_the_python_loop_bit_for_bit(self, data, n, extra):
        # any entries a ladder takes, subnormal and huge ones included, and any coordinates
        levels = [
            data.draw(st.lists(POSITIVE, min_size=1 << L, max_size=1 << L))
            for L in range(n + extra)
        ]
        ladder = DiagLadder(levels)
        coords = data.draw(st.lists(COORDINATES, min_size=1 << n, max_size=1 << n))
        assert outcome(apply_generator, ladder, coords) == outcome(
            reference_apply_generator, ladder, coords
        )

    def test_matches_the_python_loop_on_any_input(self):
        ladder = build_diag_ladder(Level(3))
        rng = random.Random(7)
        v = [rng.uniform(-9, 9) for _ in range(8)]
        cases = [
            (ladder, v),
            (ladder, tuple(v)),
            (ladder, np.array(v)),
            (ladder, "12345678"),
            (ladder, v[:4]),
            (ladder, v[:3]),
            (ladder, []),
            (DiagLadder(ladder.levels[:2]), v),
            (ladder, v[:7] + [None]),
            (ladder, v[:7] + [10**400]),
        ]
        for args in cases:
            assert outcome(apply_generator, *args) == outcome(reference_apply_generator, *args)
        # a level shorter or longer than its blocks is refused before any merge
        shorter = ladder.levels[:2] + (ladder.levels[2][:3],)
        longer = ladder.levels[:1] + (ladder.levels[1] + (0.5,),) + ladder.levels[2:]
        for levels in (shorter, longer):
            with pytest.raises(ValueError, match="must hold"):
                DiagLadder(levels)

    def test_short_ladder_raises_the_message_of_count_points(self):
        # one check of the depth, in the walker, for every entry point
        short = build_diag_ladder(Level(1))
        level = Level(2)
        with pytest.raises(ValueError) as counted:
            count_points(level, Box.symmetric(1.0, 4), short)
        with pytest.raises(ValueError) as applied:
            apply_generator(short, [1.0] * 4)
        assert str(applied.value) == str(counted.value) == "ladder depth 1 < level 2"

    @pytest.mark.parametrize("n", range(7))
    def test_matches_dense_matrix(self, n):
        rng = random.Random(n + 100)
        level = Level(n)
        ladder = build_diag_ladder(level)
        dense = build_generator_matrix(level, ladder)
        integer = [[rng.randint(-6, 6) for _ in range(level.d)] for _ in range(20)]
        shifts = [[rng.random() for _ in range(level.d)] for _ in range(20)]
        for v in integer + shifts:
            fast = apply_generator(ladder, v)
            assert fast == pytest.approx(dense @ np.array(v, float), abs=1e-9)

    @pytest.mark.parametrize("n", range(7))
    def test_matches_images_byte_for_byte(self, n):
        # the compiled merge tree and the Python reference perform the same operations
        rng = random.Random(n + 200)
        d = 1 << n
        ladder = build_diag_ladder(Level(n))
        draws = [
            lambda: rng.randint(-10**12, 10**12),
            rng.random,
            lambda: rng.choice((-0.0, 0.0, 1e300, -1e300, rng.random())),
            lambda: np.int64(rng.randint(-10**12, 10**12)),
        ]
        vectors = [[draw() for _ in range(d)] for draw in draws for _ in range(5)]
        vectors += [[rng.choice(draws)() for _ in range(d)] for _ in range(10)]
        for v in vectors:
            got = np.array(apply_generator(ladder, v), dtype=np.float64)
            assert got.tobytes() == np.array(reference_apply_generator(ladder, v)).tobytes()

    def test_scalar_pair(self):
        ladder = build_diag_ladder(Level(1))
        merged = apply_generator(ladder, (1, 1))
        assert merged == pytest.approx((1.0 + SQRT2, 1.0 - SQRT2), abs=1e-15)

    def test_zero_second_half(self):
        ladder = build_diag_ladder(Level(1))
        assert apply_generator(ladder, (3.0, 0.0)) == (3.0, 3.0)

    def test_rejects_bad_length(self):
        ladder = build_diag_ladder(Level(2))
        with pytest.raises(ValueError):
            apply_generator(ladder, (1.0, 2.0, 3.0))


class TestRecursive:
    def test_interval_base_case(self):
        pts = recursive_enumerate(Level(0), Box((-1.5,), (1.5,)))
        assert [p.k for p in pts] == [(-1,), (0,), (1,)]
        assert [p.x for p in pts] == [(-1.0,), (0.0,), (1.0,)]

    def test_empty_interval(self):
        assert recursive_enumerate(Level(0), Box((0.2,), (0.9,))) == []

    def test_square_box_seven_points(self):
        # brute force over k in [-3, 3]^2 checking |k1 +- sqrt(2) k2| <= 2
        level = Level(1)
        expected = set()
        for k1 in range(-3, 4):
            for k2 in range(-3, 4):
                if abs(k1 + SQRT2 * k2) <= 2.0 and abs(k1 - SQRT2 * k2) <= 2.0:
                    expected.add((k1, k2))
        pts = recursive_enumerate(level, Box.symmetric(2.0, 2))
        assert {p.k for p in pts} == expected
        assert expected == {(-2, 0), (-1, 0), (0, 0), (1, 0), (2, 0), (0, 1), (0, -1)}


class TestStream:
    def test_matches_recursive_bit_for_bit(self):
        # beyond the oracle's n <= 3 the recursive reference is the only exact check
        rng = random.Random(501)
        for n in range(6):
            level = Level(n)
            ladder = build_diag_ladder(level)
            if n < 4:
                boxes = [random_box(rng, level.d) for _ in range(15)]
            else:
                # small boxes around a lattice image: off-centre, a few points each
                boxes = [Box.symmetric(2.5, level.d)]
                for _ in range(4):
                    x = apply_generator(ladder, [rng.randint(-3, 3) for _ in range(level.d)])
                    boxes.append(Box(
                        tuple(v - rng.uniform(1.0, 2.5) for v in x),
                        tuple(v + rng.uniform(1.0, 2.5) for v in x),
                    ))
            for box in boxes:
                points = collect(level, box, ladder)
                reference = recursive_enumerate(level, box)
                assert points == reference
                if points:
                    got = np.array([p.x for p in points]).tobytes()
                    assert got == np.array([p.x for p in reference]).tobytes()

    def test_five_points_in_small_cubature_box(self):
        level = Level(2)
        ladder = build_diag_ladder(level)
        assert enumerate_stream(level, cubature_box(2, 2), ladder, lambda p: None) == 5

    def test_origin_only(self):
        level = Level(0)
        ladder = build_diag_ladder(level)
        pts = collect(level, Box((0.0,), (0.0,)), ladder)
        assert pts == [LatticePoint((0,), (0.0,))]

    def test_lexicographic_emission_order(self):
        level = Level(2)
        ladder = build_diag_ladder(level)
        pts = collect(level, Box.symmetric(3.0, 4), ladder)
        assert len(pts) > 1
        assert [p.k for p in pts] == sorted(p.k for p in pts)

    def test_consumer_exception_aborts(self):
        level = Level(1)
        ladder = build_diag_ladder(level)
        seen = []

        def boom(point):
            seen.append(point)
            if len(seen) == 3:
                raise RuntimeError("stop here")

        with pytest.raises(RuntimeError, match="stop here"):
            enumerate_stream(level, Box.symmetric(2.0, 2), ladder, boom)
        assert len(seen) == 3

    def test_emitted_image_matches_dense_product(self):
        rng = random.Random(77)
        for n in range(4):
            level = Level(n)
            ladder = build_diag_ladder(level)
            dense = build_generator_matrix(level, ladder)
            box = random_box(rng, level.d)
            scale = max(1.0, *(abs(v) for v in box.lower + box.upper))
            for p in collect(level, box, ladder):
                assert p.x == pytest.approx(dense @ np.array(p.k, float), abs=1e-9 * scale)

    def test_membership_within_tolerance(self):
        # the tolerance is zero: every emitted image lies in the closed box
        rng = random.Random(78)
        for n in range(4):
            level = Level(n)
            ladder = build_diag_ladder(level)
            for _ in range(10):
                box = random_box(rng, level.d)
                for p in collect(level, box, ladder):
                    assert all(lo <= xi <= hi for xi, lo, hi in zip(p.x, box.lower, box.upper))

    def test_negation_symmetry(self):
        rng = random.Random(79)
        for n in range(4):
            level = Level(n)
            ladder = build_diag_ladder(level)
            for _ in range(10):
                box = Box.symmetric(rng.uniform(0.5, 4.0), level.d)
                ks = {p.k for p in collect(level, box, ladder)}
                assert ks == {tuple(-c for c in k) for k in ks}

    def test_half_swap_symmetry(self):
        # G(kA, -kY) is Gk with its halves swapped, to the bit, on any
        # positive ladder: the quarter walk of a count rests on it
        rng = random.Random(81)
        for n in range(1, MAX_LEVEL + 1):
            level = Level(n)
            ladder = build_diag_ladder(level)
            other = DiagLadder([[1.25 * v for v in diag] for diag in ladder.levels])
            h = level.d // 2
            for diagonals in (ladder, other):
                for scale, j in itertools.product((10, 10**6), range(24)):
                    k = [rng.randint(-scale, scale) for _ in range(level.d)]
                    if j == 0:  # kY = 0
                        k[h:] = [0] * h
                    elif j == 1:  # kA = 0
                        k[:h] = [0] * h
                    x = apply_generator(diagonals, k)
                    flipped = apply_generator(diagonals, k[:h] + [-v for v in k[h:]])
                    assert array("d", flipped).tobytes() == array("d", x[h:] + x[:h]).tobytes()

    def test_monotone_in_box_inclusion(self):
        rng = random.Random(80)
        for n in range(4):
            level = Level(n)
            ladder = build_diag_ladder(level)
            for _ in range(10):
                outer = random_box(rng, level.d)
                shrink = [
                    sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
                    for lo, hi in zip(outer.lower, outer.upper)
                ]
                inner = Box(tuple(s[0] for s in shrink), tuple(s[1] for s in shrink))
                outer_ks = {p.k for p in collect(level, outer, ladder)}
                inner_ks = {p.k for p in collect(level, inner, ladder)}
                assert inner_ks <= outer_ks

    def test_dimension_mismatch_rejected(self):
        level = Level(1)
        ladder = build_diag_ladder(level)
        with pytest.raises(ValueError):
            enumerate_stream(level, Box.symmetric(1.0, 4), ladder, lambda p: None)

    def test_argument_errors_name_the_box_then_the_ladder(self):
        # the walker checks the box's dimension before the ladder's depth;
        # enumerate_batches makes its walk, and so raises, at the call
        level = Level(2)
        ladder, short = build_diag_ladder(level), build_diag_ladder(Level(1))
        seen = []
        calls = [
            count_points,
            lambda *args: enumerate_stream(*args, seen.append),
            enumerate_batches,
        ]
        cases = [
            (Box.symmetric(1.0, 3), ladder, "box dimension 3 != lattice dimension 4"),
            (Box.symmetric(1.0, 3), short, "box dimension 3 != lattice dimension 4"),
            (Box.symmetric(1.0, 4), short, "ladder depth 1 < level 2"),
        ]
        for box, diagonals, message in cases:
            for call in calls:
                with pytest.raises(ValueError) as info:
                    call(level, box, diagonals)
                assert str(info.value) == message
        assert seen == []


def run_child(code):
    """Run ``code`` in a fresh interpreter that imports the package under test."""
    src = str(Path(chebfrolov.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return proc.stdout.split()


#: Child-process prelude: counts every process started from here on.
COUNT_PROCESSES = """
import subprocess
started = []
_init = subprocess.Popen.__init__
def init(self, *args, **kwargs):
    started.append(args)
    _init(self, *args, **kwargs)
subprocess.Popen.__init__ = init
"""


#: Modules that importing the CLI or counting through it must not load: the
#: imports of ``dataclasses`` (``inspect`` among them), ``platform``,
#: ``ctypes``, and the verification module, which only ``verify`` and
#: ``table`` need.
HEAVY_MODULES = {"dataclasses", "inspect", "platform", "ctypes", "chebfrolov.verify"}


#: The package's names: the enumerators, the cubature rule and what they
#: take, the golden table, |det| and the oracle.
PACKAGE_NAMES = [
    "Box", "ConsistencyError", "CubatureSpec", "DiagLadder", "Integrand", "IntegrationResult",
    "LatticePoint", "Level", "RandomShift", "apply_generator", "build_diag_ladder",
    "count_points", "det_magnitude", "enumerate_batches", "enumerate_stream", "integrate",
    "load_golden_table", "oracle_enumerate", "randomized_box", "sample_shift", "standard_box",
]

#: Names that live only in their submodules, not in the package.
SUBMODULE_NAMES = {
    "CountRecord": "chebfrolov.verify",
    "TableCheck": "chebfrolov.verify",
    "DoubleBoxCheck": "chebfrolov.verify",
    "UnimodularCheck": "chebfrolov.verify",
    "reproduce_table": "chebfrolov.verify",
    "double_box_check": "chebfrolov.verify",
    "unimodular_check": "chebfrolov.verify",
    "root_permutation": "chebfrolov.lattice",
    "chebyshev_root": "chebfrolov.lattice",
}


class TestKernels:
    """One compiled walker, built on first use and cached beside the module."""

    def test_import_loads_no_library_and_starts_no_compiler(self):
        # modules a bare interpreter loads (site hooks included) do not count
        baseline = set(run_child("import sys; print(*sys.modules)"))
        code = COUNT_PROCESSES + (
            "import sys\n"
            "import chebfrolov, chebfrolov.cli, chebfrolov.enumeration as e\n"
            "print(e._library.cache_info().currsize, len(started), *sys.modules)"
        )
        library, processes, *modules = run_child(code)
        assert (library, processes) == ("0", "0")
        assert HEAVY_MODULES.isdisjoint(set(modules) - baseline)
        # nor does a count run as `python -m chebfrolov.cli count ...`
        code = (
            "import os, runpy, sys\n"
            "sys.argv = ['chebfrolov.cli', 'count', '--dim', '8', '--log2-scale', '8',"
            " '--out', os.devnull]\n"
            "try:\n"
            "    runpy.run_module('chebfrolov.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, *sys.modules)\n"
        )
        status, *modules = run_child(code)
        assert status == "0"
        assert "chebfrolov.enumeration" in modules
        assert HEAVY_MODULES.isdisjoint(set(modules) - baseline)

    def test_verify_names_resolve_on_first_access(self):
        names = ["load_golden_table", "oracle_enumerate"]
        code = (
            "import sys\n"
            "import chebfrolov as cf\n"
            "print('chebfrolov.verify' in sys.modules)\n"
            "rows = len(cf.load_golden_table())\n"
            "from chebfrolov import *\n"
            "import chebfrolov.verify as v\n"
            f"names = {names!r}\n"
            "print(rows > 0, all(getattr(cf, n) is getattr(v, n) is globals()[n] for n in names))\n"
            "print(set(names) <= set(cf.__all__), hasattr(cf, 'no_such_name'))\n"
        )
        assert run_child(code) == ["False", "True", "True", "True", "False"]

    def test_package_exports_21_names(self):
        assert sorted(chebfrolov.__all__) == PACKAGE_NAMES
        namespace = {}
        exec("from chebfrolov import *", namespace)
        assert all(namespace[name] is getattr(chebfrolov, name) for name in PACKAGE_NAMES)
        for name, module in SUBMODULE_NAMES.items():
            assert callable(getattr(importlib.import_module(module), name))
            assert name not in namespace and not hasattr(chebfrolov, name)
            with pytest.raises(ImportError):
                exec(f"from chebfrolov import {name}", {})
        verify = importlib.import_module("chebfrolov.verify")
        assert not hasattr(verify, "interval_mean") and not hasattr(verify, "clamp_bounds")
        lattice = importlib.import_module("chebfrolov.lattice")  # test-only code lives in the tests
        for name in ("build_vandermonde", "rescaled_chebyshev", "build_generator_matrix"):
            assert not hasattr(lattice, name)

    def test_second_process_reuses_the_cached_library(self):
        code = COUNT_PROCESSES + (
            "import chebfrolov as cf, chebfrolov.enumeration as e\n"
            "level = cf.Level(3)\n"
            "box = cf.Box.symmetric(3.0, level.d)\n"
            "print(cf.count_points(level, box, cf.build_diag_ladder(level)),"
            " e._library().__file__, len(started))"
        )
        count, path, _ = run_child(code)  # builds the library unless it is cached
        assert count == "63"
        assert path == _library().__file__
        mtime = os.stat(path).st_mtime_ns
        assert run_child(code) == ["63", path, "0"]
        assert os.stat(path).st_mtime_ns == mtime

    def test_failed_compile_raises_runtime_error(self, tmp_path):
        package = Path(chebfrolov.__file__).resolve().parent
        copy = tmp_path / "chebfrolov"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        with open(copy / "_walk.c", "a") as fh:
            fh.write("\nint broken(void) { return undeclared_name; }\n")
        code = (
            "import chebfrolov as cf\n"
            "try:\n"
            "    cf.count_points(cf.Level(1), cf.Box.symmetric(1.0, 2), cf.build_diag_ladder(cf.Level(1)))\n"
            "except RuntimeError as exc:\n"
            "    print('undeclared_name' in str(exc))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(tmp_path)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.stdout.split() == ["True"]
        assert not list((copy / "__pycache__").glob("_walk*")), "a partial build was left behind"

    def test_a_build_removes_the_stale_builds_of_its_interpreter(self, tmp_path):
        package = Path(chebfrolov.__file__).resolve().parent
        copy = tmp_path / "chebfrolov"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        cache = copy / "__pycache__"
        cache.mkdir()
        tag = sys.implementation.cache_tag
        stale = cache / f"_walk-{tag}-0123456789abcdef.so"  # left by an edit of the source
        other = cache / "_walk-otherpy-12-0123456789abcdef.so"  # another interpreter's
        for path in (stale, other):
            path.write_bytes(b"a build")
        code = (
            "import chebfrolov as cf, chebfrolov.enumeration as e\n"
            "level = cf.Level(1)\n"
            "print(cf.count_points(level, cf.Box.symmetric(2.0, 2), cf.build_diag_ladder(level)),"
            " e._library().__file__)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(tmp_path)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        count, built = proc.stdout.split()
        level = Level(1)
        assert int(count) == count_points(level, Box.symmetric(2.0, 2), build_diag_ladder(level))
        assert Path(built).parent == cache and Path(built).name.startswith(f"_walk-{tag}-")
        assert sorted(p.name for p in cache.glob("_walk-*")) == sorted([Path(built).name, other.name])

    def test_unwritable_cache_builds_privately_and_removes_the_build(self, tmp_path):
        # a __pycache__ that is a file cannot hold the build, even for root:
        # the module is built in a temporary directory, which goes once it is loaded
        package = Path(chebfrolov.__file__).resolve().parent
        copy = tmp_path / "chebfrolov"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        (copy / "__pycache__").write_bytes(b"not a directory\n")
        temp = tmp_path / "temp"
        temp.mkdir()
        code = (
            "import os, chebfrolov as cf, chebfrolov.enumeration as e\n"
            "level = cf.Level(1)\n"
            "path = e._library().__file__\n"
            "print(cf.count_points(level, cf.Box.symmetric(2.0, 2), cf.build_diag_ladder(level)),"
            " path, os.path.exists(path), os.path.exists(os.path.dirname(path)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(tmp_path), TMPDIR=str(temp)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        count, built, *exists = proc.stdout.split()
        level = Level(1)
        assert int(count) == count_points(level, Box.symmetric(2.0, 2), build_diag_ladder(level))
        assert Path(built).parent.parent == temp and Path(built).name.startswith("_walk-")
        assert exists == ["False", "False"] and list(temp.iterdir()) == []
        assert (copy / "__pycache__").read_bytes() == b"not a directory\n"

    def test_entry_points_leak_nothing(self):
        # the entry points count references by hand: run each on its normal
        # and its error paths, and count the interpreter's allocated blocks
        walker = _library()
        level = Level(2)
        d = level.d
        ladder = build_diag_ladder(level)
        box = Box.symmetric(3.0, d)
        lower, upper, diag, n = box.lower, box.upper, ladder._flat, level.n
        wide = Box.symmetric(8.0, d)  # 1,459 points: a fill of them outgrows its first pair
        far, empty = Box.symmetric(2.0**50, d), Box((2.0**50,) * d, (0.0,) * d)
        X = array("d", [0.5]) * (4 * d)
        v, u = array("d", [0.25] * d), array("d", [1.0] * d)
        seen = []

        def consumer(point):
            raise LookupError

        refusals = [
            lambda: walker.count(far.lower, far.upper, diag, n),
            lambda: walker.count(lower[:1], upper, diag, n),
            lambda: walker.count(("x",) * d, upper, diag, n),
            lambda: walker.count(lower, upper, diag[:1], n),
            lambda: walker.state(lower, ("x",) * d, diag, n, 4),
            lambda: walker.state(far.lower, far.upper, diag, n, 4),
            lambda: walker.state(lower, upper, diag[:1], n, 4),
            lambda: walker.state(lower, upper, diag, n, 0),
            lambda: walker.state(lower, upper, diag, n, -(2**100)),
            lambda: walker.state(lower, upper, diag, n, 2.5),
            lambda: walker.fill(bytearray(8 * 200)),
            lambda: walker.fill(datetime.datetime_CAPI),
            lambda: walker.fill(walker.state(lower, upper, diag, n, 4), 4),
            lambda: walker.stream(far.lower, far.upper, diag, n, LatticePoint, consumer),
            lambda: walker.stream(lower, upper, diag, n, int, consumer),
            lambda: walker.stream(lower, upper, diag[:1], n, LatticePoint, consumer),
            lambda: walker.map_nodes(X, d, 0.5, v, None, 1.0),
            lambda: walker.map_nodes(X, d, 0.5, v, u[:1], 1.0),
            lambda: walker.format_rows(X[:3], d, 17),
            lambda: walker.format_rows(X, d, 0),
            lambda: walker.apply_generator(diag, ["x"] * d, n),
            lambda: walker.apply_generator(diag, [1.0] * 3, n),
            lambda: walker.apply_generator(diag[:1], [1.0] * d, n),
            lambda: walker.apply_generator(diag, 5, n),
            lambda: enumerate_stream(level, Box.symmetric(3.0, d), ladder, consumer),
        ]

        def calls():
            walker.count(lower, upper, diag, n)
            walker.fill(walker.state(wide.lower, wide.upper, diag, n, 4))
            walk = walker.state(wide.lower, wide.upper, diag, n, 10**6)
            walker.fill(walk)  # every row: doubled from 1024 rows, then trimmed
            walker.fill(walk)  # done: an empty pair
            walker.fill(walker.state(empty.lower, empty.upper, diag, n, 4))
            walker.stream(lower, upper, diag, n, LatticePoint, seen.append)
            seen.clear()
            walker.map_nodes(X, d, 0.5, v, u, 1e9)
            walker.map_nodes(X, d, 0.5, v, u, 0.0)  # stops at the first node
            walker.format_rows(X, d, 17)
            walker.apply_generator(diag, range(d), n)  # ints: each float() is a new object
            for refusal in refusals:
                with pytest.raises((ValueError, TypeError, LookupError)):
                    refusal()

        for _ in range(100):  # fill the interpreter's free lists and caches
            calls()
        gc.collect()
        before = sys.getallocatedblocks()
        for _ in range(3000):
            calls()
        gc.collect()
        assert sys.getallocatedblocks() - before < 50

    def test_missing_python_headers_raise_runtime_error(self, tmp_path):
        # an interpreter installed without its headers: the include directories are empty
        package = Path(chebfrolov.__file__).resolve().parent
        shutil.copytree(package, tmp_path / "chebfrolov", ignore=shutil.ignore_patterns("__pycache__"))
        empty = tmp_path / "include"
        empty.mkdir()
        code = (
            "import sysconfig\n"
            f"sysconfig.get_path = lambda name: {str(empty)!r}\n"
            "import chebfrolov as cf\n"
            "try:\n"
            "    cf.count_points(cf.Level(1), cf.Box.symmetric(1.0, 2), cf.build_diag_ladder(cf.Level(1)))\n"
            "except RuntimeError as exc:\n"
            "    print('Python.h' in str(exc))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(tmp_path)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.stdout.split() == ["True"], proc.stderr

    def test_walker_releases_the_gil(self):
        # a count of about 0.2 s in a thread; a loop in this thread stamps
        # the time meanwhile.  A walk that kept the GIL would let stamps in
        # only at the edges of the call, within a switch interval (5 ms).
        # The standard box with its last upper corner one ulp higher is not
        # symmetric, so its count takes the whole walk, not the half walk.
        level = Level(5)
        ladder = build_diag_ladder(level)
        std = cubature_box(5, 2**12)
        box = Box(std.lower, std.upper[:-1] + (math.nextafter(std.upper[-1], math.inf),))
        count_points(level, Box.symmetric(0.1, level.d), ladder)  # build and load outside the timing
        call = []

        def run():
            start = time.perf_counter()
            call.append(count_points(level, box, ladder))
            call.extend((start, time.perf_counter()))

        thread = threading.Thread(target=run)
        stamps = []
        thread.start()
        while thread.is_alive():
            stamps.append(time.perf_counter())
            time.sleep(0.001)
        thread.join(timeout=60)
        assert not thread.is_alive()
        count, start, end = call
        assert count == 88645
        quarter = (end - start) / 4
        assert quarter > 0.01
        assert any(start + quarter < t < end - quarter for t in stamps)

    def test_ctrl_c_stops_a_stream(self):
        # a builtin consumer runs no bytecode, so only the walker's own check
        # of pending signals lets Ctrl-C in before the stream's 88,645 points
        # (1.1 to 1.9 s on a 2-core Xeon with CPython 3.11) are all delivered
        level = Level(5)
        ladder = build_diag_ladder(level)
        box = cubature_box(5, 2**12)
        count_points(level, Box.symmetric(0.1, level.d), ladder)  # build and load first
        points = []
        timer = threading.Timer(0.1, _thread.interrupt_main)
        # nor may a gc callback run bytecode (hypothesis installs one): the
        # walker checks for signals before each point, but a collection that
        # its allocations start and that outlasts the 5 ms switch interval
        # lets the timer's thread in at the callback's first bytecode, and
        # the signal is raised there and lost as an unraisable exception
        collecting = gc.isenabled()
        gc.disable()
        try:
            with pytest.raises(KeyboardInterrupt):
                timer.start()
                enumerate_stream(level, box, ladder, points.append)
                timer.join()  # a stream that missed the signal meets it here
                time.sleep(1.0)
        finally:
            timer.cancel()
            timer.join()
            if collecting:
                gc.enable()
        assert len(points) < 88645

    @pytest.mark.parametrize("n", [4, 5])
    def test_ctrl_c_in_the_consumer_stops_a_stream(self, n):
        # no timer: the first point's consumer raises SIGINT itself.  At
        # d = 16 the box fits the first chunk, which is walked difference-first
        # and sorted; the d = 32 standard box of 88,645 points streams mean-first
        level = Level(n)
        ladder = build_diag_ladder(level)
        box = Box.symmetric(2.5, level.d) if n == 4 else cubature_box(5, 2**12)
        assert (1 < count_points(level, box, ladder) <= 1024 // level.d) == (n == 4)
        points = []

        def consumer(point):
            points.append(point)
            signal.raise_signal(signal.SIGINT)

        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                enumerate_stream(level, box, ladder, consumer)
        finally:
            signal.signal(signal.SIGINT, handler)
        assert len(points) == 1

    def test_entry_points_refuse_short_buffers_without_writing(self):
        walker = _library()
        level = Level(2)
        d = level.d
        ladder = build_diag_ladder(level)
        box = Box.symmetric(3.0, d)
        lower, upper, diag, n = box.lower, box.upper, ladder._flat, level.n
        state = walker.state(lower, upper, diag, n, 4)
        far = Box.symmetric(2.0**50, d)
        X = array("d", [7.0]) * (4 * d)
        v, u = array("d", [0.25] * d), array("d", [1.0] * d)
        buffers = (X, v, u)
        before = [bytes(b) for b in buffers]
        seen = []
        # views one value short of what each call asks for: a write would show in the buffer
        X_, v_, u_ = map(memoryview, buffers)
        refusals = [
            lambda: walker.state(lower, upper, diag[:2], n, 4),
            lambda: walker.state(lower, upper, diag, n, 0),
            lambda: walker.state(far.lower, far.upper, diag, n, 4),
            lambda: walker.stream(lower, upper, diag[:2], n, LatticePoint, seen.append),
            lambda: walker.map_nodes(X, d, 0.5, v_[:-1], u, 1.0),
            lambda: walker.map_nodes(X, d, 0.5, v, u_[:-1], 1.0),
        ]
        for refusal in refusals:
            with pytest.raises(ValueError):
                refusal()
        for refusal in (lambda: walker.map_nodes(X_[:-1], d, 0.5, v, u, 1.0),
                        lambda: walker.format_rows(X_[:-1], d, 17)):
            with pytest.raises(ValueError, match="not rows of"):
                refusal()
        # one node map: v and u are buffers, with no None for the deterministic rule
        for shift in ((None, u), (v, None), (None, None)):
            with pytest.raises(TypeError):
                walker.map_nodes(X, d, 0.5, *shift, 1.0)
        # a state is the walker's own: a buffer or another module's capsule is none
        for foreign in (bytearray(8 * 200), datetime.datetime_CAPI):
            with pytest.raises(TypeError, match="walker state"):
                walker.fill(foreign)
        with pytest.raises(TypeError, match="1 arguments"):
            walker.fill(state, 4)  # a walk keeps its size
        assert [bytes(b) for b in buffers] == before and seen == []
        # the refused fills did not move the walk: it starts at its first row
        rows = walker.fill(state)
        assert rows == walker.fill(walker.state(lower, upper, diag, n, 4))
        first = next(enumerate_batches(level, Box.symmetric(3.0, d), ladder, 4))
        assert bytes(rows[0]) == first[0].tobytes() and bytes(rows[1]) == first[1].tobytes()
        # the same calls with the full buffers write them
        assert walker.map_nodes(X, d, 0.5, v, u, 1e9) == -1
        assert len(walker.format_rows(X, d, 17)) > 0
        assert [bytes(b) for b in buffers] != before

    def test_entry_points_refuse_levels_past_max_level(self):
        # the slacks are measured up to MAX_LEVEL only: one level higher, each
        # entry point that takes a level refuses it before it reads the
        # diagonals (None, no buffer, would raise TypeError) or streams a
        # point; a level past Py_ssize_t is clipped to it, a ValueError too
        walker = _library()
        n = MAX_LEVEL + 1
        d = 1 << n
        diag = array("d", [chebyshev_root(L + 1, k) for L in range(n) for k in range(1, 2**L + 1)])
        lower, upper = (-1.0,) * d, (1.0,) * d  # holds the origin
        seen = []
        calls = [
            lambda diag, n: walker.state(lower, upper, diag, n, 4),
            lambda diag, n: walker.count(lower, upper, diag, n),
            lambda diag, n: walker.stream(lower, upper, diag, n, LatticePoint, seen.append),
            lambda diag, n: walker.apply_generator(diag, [1.0] * d, n),
        ]
        for level in (n, 2**100):
            message = rf"level {min(level, sys.maxsize)} is outside \[0, {MAX_LEVEL}\]"
            for call in calls:
                for buffer in (diag, None):
                    with pytest.raises(ValueError, match=message):
                        call(buffer, level)
        assert seen == []

    def test_fills_resume_with_the_ladder_the_walk_was_made_with(self):
        # the walk copies its diagonals when it is made: a caller's buffer
        # changed between two fills does not reach it, and no fill takes any
        walker = _library()
        level = Level(3)
        ladder = build_diag_ladder(level)
        box = standard_box(CubatureSpec(level, 2.0**10))
        lower, upper, n = box.lower, box.upper, level.n
        diag = array("d", ladder._flat)
        state = walker.state(lower, upper, diag, n, 3)
        first = walker.fill(state)
        for i in range(len(diag)):
            diag[i] *= 1.25
        rest = list(iter(lambda: walker.fill(state), (bytearray(), bytearray())))
        [(K, X)] = enumerate_batches(level, box, ladder, 10**6)
        assert len(K) == 1067 and len(rest) == 1067 // 3
        assert bytes(first[0]) + b"".join(k for k, _ in rest) == K.tobytes()
        assert bytes(first[1]) + b"".join(x for _, x in rest) == X.tobytes()
        with pytest.raises(TypeError, match="1 arguments"):
            walker.fill(state, diag)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_interleaved_walks_stay_independent(self, n):
        # each walk resumes from its own state only
        level = Level(n)
        ladder = build_diag_ladder(level)
        rng = random.Random(300 + n)
        boxes = []
        for _ in range(2):
            x = apply_generator(ladder, [rng.randint(-3, 3) for _ in range(level.d)])
            r = rng.uniform(3.0, 3.5)
            boxes.append(Box(tuple(v - r for v in x), tuple(v + r for v in x)))
        walks = list(zip(boxes, (1, 7)))

        def rows(fill):
            K, X = fill
            return K.tolist(), X.tolist()

        alone = [[rows(f) for f in enumeration._fill(level, box, ladder, size)] for box, size in walks]
        assert all(len(fills) > 1 for fills in alone)
        together = [[], []]
        fills = [enumeration._fill(level, box, ladder, size) for box, size in walks]
        while fills[0] or fills[1]:
            for j, walk in enumerate(fills):
                if walk is not None:
                    fill = next(walk, None)
                    if fill is None:
                        fills[j] = None
                    else:
                        together[j].append(rows(fill))
        assert together == alone

    def test_walker_compiles_without_warnings(self, tmp_path):
        # the build's own command: some warnings (-Wmaybe-uninitialized) come
        # only from the optimiser's analysis
        source = Path(chebfrolov.__file__).with_name("_walk.c")
        cc, *flags = enumeration._build_command(source, tmp_path / "walk.so")
        assert any(flag.startswith("-I") for flag in flags)
        proc = subprocess.run(
            [cc, "-Wall", "-Wextra", "-Werror", *flags],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_build_command_carries_no_isa_flag(self):
        # the build cache is keyed by os.uname().machine, not by the CPU: a
        # build for this CPU's ISA (-march=native, -msse4.1, ...) left in a
        # shared __pycache__ could die with SIGILL on an older CPU of the same
        # machine type.  ISA-specific code enters only through walk's
        # target_clones, which picks its clone by CPUID when the module loads
        assert not [flag for flag in enumeration._CC if flag.startswith("-m")]

    def test_cloned_walk_matches_the_plain_build(self, tmp_path):
        # on x86-64 with glibc, walk has an SSE4.1 clone (roundsd rounds the
        # bounds) beside its default code, and a CPU with SSE4.1 runs the
        # clone; the source without the attribute builds the default code
        # alone, and both builds give the same counts and rows, to the bit
        text = Path(chebfrolov.__file__).with_name("_walk.c").read_text()
        clones = 'target_clones("sse4.1", "default")'
        assert text.count(clones) == 1
        source = tmp_path / "_walk.c"
        source.write_text(text.replace(clones, ""))
        target = tmp_path / f"_walk{importlib.machinery.EXTENSION_SUFFIXES[0]}"
        subprocess.run(enumeration._build_command(source, target), check=True, timeout=60)
        loader = importlib.machinery.ExtensionFileLoader("plain._walk", str(target))
        spec = importlib.util.spec_from_file_location(loader.name, target, loader=loader)
        plain = importlib.util.module_from_spec(spec)
        loader.exec_module(plain)

        def results(walker, lower, upper, flat, n):
            fills = []
            for size in (7, enumeration._FILL_ROWS):
                state = walker.state(lower, upper, flat, n, size)
                fills.append(list(iter(lambda: tuple(map(bytes, walker.fill(state))), (b"", b""))))
            points = []
            walker.stream(lower, upper, flat, n, LatticePoint, points.append)
            rows = [(p.k, array("d", p.x).tobytes()) for p in points]
            return walker.count(lower, upper, flat, n), fills, rows

        for n in range(1, MAX_LEVEL + 1):
            level = Level(n)
            ladder = build_diag_ladder(level)
            rng = random.Random(2700 + n)
            boxes = [Box.symmetric(r, level.d) for r in (2.0, 3.0)]  # quarter walks (n >= 2)
            boxes += [Box(b.lower, b.upper[:-1] + (math.nextafter(b.upper[-1], math.inf),)) for b in boxes]
            # symmetric about 0 with unequal halves: a half walk
            boxes.append(Box((-2.0,) * (level.d - 1) + (-2.5,), (2.0,) * (level.d - 1) + (2.5,)))
            for scale in (5, 10**6):
                x = apply_generator(ladder, [rng.randint(-scale, scale) for _ in range(level.d)])
                boxes += [Box(x, x), Box(x, tuple(v + 1.0 for v in x))]
                boxes.append(Box(tuple(v - 2.5 for v in x), tuple(v + 2.5 for v in x)))
            boxes += [random_box(rng, level.d, 8.0) for _ in range(3)]
            for box in boxes:
                expected = results(plain, box.lower, box.upper, ladder._flat, n)
                assert results(_library(), box.lower, box.upper, ladder._flat, n) == expected

    def test_other_ladder_values(self):
        level = Level(3)
        ladder = build_diag_ladder(level)
        other = DiagLadder([[1.25 * v for v in diag] for diag in ladder.levels])
        box = Box.symmetric(4.0, level.d)
        points = collect(level, box, other)
        assert len(points) > 1
        assert [p.x for p in points] != [p.x for p in collect(level, box, ladder)]
        for p in points:
            assert np.array(p.x).tobytes() == np.array(apply_generator(other, p.k)).tobytes()
        assert count_points(level, box, other) == len(points)
        assert assert_batches_match_stream(level, box, other, 7) == len(points)
        # a ladder refuses at construction what would break the walk: a NaN,
        # a non-positive diagonal, which reverses or voids the walker's bounds
        # (it would count 0 and fill 2 rows where 15 points lie in the box),
        # and a level of the wrong length, which would misplace the diagonals
        with pytest.raises(ValueError, match="positive and finite, got nan"):
            DiagLadder(((math.nan,),) + ladder.levels[1:])
        for bad in (-SQRT2, 0.0):
            with pytest.raises(ValueError, match=f"positive and finite, got {bad!r}"):
                DiagLadder(((bad,),))
        for levels in (ladder.levels[:1] + ((1.0,),), ladder.levels[:1] + ((1.0, 1.5, 2.0),)):
            with pytest.raises(ValueError, match="level 1 must hold 2 entries"):
                DiagLadder(levels)

    def test_diagonal_buffer_is_cached_by_ladder(self, monkeypatch):
        # the ladder keeps its levels flat, level L at 2**L - 1, in one
        # read-only buffer that every entry point reads
        level = Level(4)
        ladder = build_diag_ladder(level)
        flat = ladder._flat
        assert flat.format == "d" and flat.readonly
        assert flat.tolist() == [v for diag in ladder.levels for v in diag]
        with pytest.raises(TypeError):
            flat[0] = 1.0
        walker, passed = _library(), []

        class Spy:  # the walker module, noting the diagonals each walk is made with
            def __getattr__(self, name):
                def entry(lower, upper, diag, n, *rest):
                    passed.append(diag)
                    return getattr(walker, name)(lower, upper, diag, n, *rest)

                return entry

        low = Level(2)
        # the boxes are made first: a Box reads its corners in the walker too
        box, low_box = Box.symmetric(3.0, level.d), Box.symmetric(3.0, 4)
        counts = [count_points(low, low_box, build_diag_ladder(low))]
        monkeypatch.setattr(enumeration, "_library", Spy)
        count_points(level, box, ladder)
        enumerate_stream(level, box, ladder, lambda p: None)
        enumerate_batches(level, box, ladder)  # the walk is made at the call
        # a lower level reads the same buffer, its first 2**n - 1 values
        counts.append(count_points(low, low_box, ladder))
        assert len(passed) == 4 and all(diag is flat for diag in passed)
        assert counts[0] == counts[1] > 1
        # not a field: equal ladders compare, hash, print and pickle by their levels
        same = DiagLadder([list(diag) for diag in ladder.levels])
        assert same == ladder and hash(same) == hash(ladder) and same._flat is not flat
        assert "_flat" not in repr(ladder)
        assert pickle.loads(pickle.dumps(ladder))._flat.tolist() == flat.tolist()

    def test_consumer_may_enumerate_again(self):
        # the walker keeps no state outside its call's own buffers
        level, inner = Level(2), Level(3)
        ladder, inner_ladder = build_diag_ladder(level), build_diag_ladder(inner)
        box, inner_box = cubature_box(2, 2**8), cubature_box(3, 2**6)
        inner_points = collect(inner, inner_box, inner_ladder)
        inner_count = count_points(inner, inner_box, inner_ladder)
        points, nested = [], []

        def consumer(point):
            points.append(point)
            nested.append(
                (
                    count_points(inner, inner_box, inner_ladder),
                    collect(inner, inner_box, inner_ladder),
                    collect(level, box, ladder),
                )
            )

        assert enumerate_stream(level, box, ladder, consumer) == len(points) > 1
        assert points == collect(level, box, ladder)
        assert all(again == (inner_count, inner_points, points) for again in nested)

    def test_stream_memory_does_not_grow_with_the_scale(self):
        level = Level(3)
        ladder = build_diag_ladder(level)
        peaks = []
        for m in (10, 14):
            box = cubature_box(3, 2**m)
            enumerate_stream(level, box, ladder, lambda p: None)  # compile outside the trace
            tracemalloc.start()
            try:
                enumerate_stream(level, box, ladder, lambda p: None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 16,413 points instead of 1,067: keeping them would take megabytes;
        # the peak may differ by a few int objects of larger coordinates
        assert peaks[1] <= peaks[0] + 1024


class TestDeepSplit:
    """d = 64, the highest level: the walker takes the level at run time."""

    level = Level(6)

    def test_count_stream_batches_and_reference_agree(self):
        level = self.level
        ladder = build_diag_ladder(level)
        rng = random.Random(64)
        x = apply_generator(ladder, [rng.randint(-2, 2) for _ in range(level.d)])
        boxes = [
            Box.symmetric(2.5, level.d),
            Box(
                tuple(v - rng.uniform(1.0, 2.5) for v in x),
                tuple(v + rng.uniform(1.0, 2.5) for v in x),
            ),
        ]
        assert count_points(level, boxes[0], ladder) == 135
        for box in boxes:
            emitted = assert_batches_match_stream(level, box, ladder, 16)
            assert emitted > 0
            assert count_points(level, box, ladder) == emitted
            points = collect(level, box, ladder)
            reference = recursive_enumerate(level, box)
            assert points == reference
            got = np.array([p.x for p in points]).tobytes()
            assert got == np.array([p.x for p in reference]).tobytes()


class TestSplitCorrectness:
    def test_direct_check_agrees_with_split(self):
        # the two-block reduction must agree with the dense inequality test
        rng = random.Random(31)
        for n in range(3):  # ambient dimension 2**(n+1) <= 8
            level_half = Level(n)
            level_full = Level(n + 1)
            ladder = build_diag_ladder(level_full)
            half_gen = build_generator_matrix(level_half, ladder)
            full_gen = build_generator_matrix(level_full, ladder)
            d = level_half.d
            for _ in range(60):
                box = random_box(rng, 2 * d, span=3.0)
                x = np.array([rng.uniform(-2.5, 2.5) for _ in range(2 * d)])
                b = np.array(box.lower)
                c = np.array(box.upper)
                img = full_gen @ x
                direct = bool(np.all(b <= img) and np.all(img <= c))
                first = half_gen @ x[:d]
                mb = _interval_mean(n, box.lower)
                mc = _interval_mean(n, box.upper)
                cond1 = all(lo <= v <= hi for v, lo, hi in zip(first, mb, mc))
                lo2, hi2 = _clamp_bounds(n, tuple(first), box.lower, box.upper, ladder)
                second = half_gen @ x[d:]
                cond2 = all(lo <= v <= hi for v, lo, hi in zip(second, lo2, hi2))
                assert direct == (cond1 and cond2)


class TestCount:
    def test_golden_examples(self):
        lv1, lv3 = Level(1), Level(3)
        assert count_points(lv1, cubature_box(1, 2**10), build_diag_ladder(lv1)) == 1027
        assert count_points(lv3, cubature_box(3, 2**3), build_diag_ladder(lv3)) == 23

    def test_empty_box(self):
        level = Level(1)
        ladder = build_diag_ladder(level)
        assert count_points(level, Box((1.0, -1.0), (-1.0, 1.0)), ladder) == 0

    def test_matches_stream_counting_consumer(self):
        rng = random.Random(90)
        for n in range(4):
            level = Level(n)
            ladder = build_diag_ladder(level)
            for _ in range(15):
                box = random_box(rng, level.d)
                streamed = enumerate_stream(level, box, ladder, lambda p: None)
                assert count_points(level, box, ladder) == streamed

    @pytest.mark.parametrize(
        "box",
        [Box.symmetric(1e154, 2), Box((1e300, 1e300), (1e300, 1e300))],
        ids=["huge", "far point"],
    )
    def test_coordinates_past_the_limit_are_refused(self, box):
        # the far point used to count as 1: 1e300 is no longer a lattice image
        level = Level(1)
        ladder = build_diag_ladder(level)
        with pytest.raises(ValueError, match=r"2\*\*62"):
            count_points(level, box, ladder)
        with pytest.raises(ValueError, match=r"2\*\*62"):
            enumerate_stream(level, box, ladder, lambda p: None)
        with pytest.raises(ValueError, match=r"2\*\*62"):
            next(enumerate_batches(level, box, ladder))

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_far_empty_box_counts_zero(self, n):
        level = Level(n)
        ladder = build_diag_ladder(level)
        box = Box((1e300,) * level.d, (0.5e300,) * level.d)
        assert count_points(level, box, ladder) == 0
        assert collect(level, box, ladder) == []
        assert list(enumerate_batches(level, box, ladder)) == []

    @pytest.mark.parametrize("n", [0, 2, 6])
    def test_far_boxes_are_refused_at_the_call(self, n):
        # the walker refuses a corner at or beyond +-2**48 when the walk is
        # made: enumerate_batches raises before a batch is asked for
        level = Level(n)
        ladder = build_diag_ladder(level)
        box = Box((0.0,) * level.d, (2.0**48,) * level.d)
        for call in (count_points, enumerate_batches):
            with pytest.raises(ValueError, match=r"corner at or beyond \+-2\*\*48"):
                call(level, box, ladder)
        with pytest.raises(ValueError, match=r"corner at or beyond \+-2\*\*48"):
            enumerate_stream(level, box, ladder, lambda p: None)
        if n < 6:  # no double scale puts a d = 64 standard box that far out
            spec = CubatureSpec(level, 2.0 ** (60 * level.d))
            with pytest.raises(ValueError, match=r"corner at or beyond \+-2\*\*48"):
                integrate(spec, lambda x: 1.0, ladder)
        # one double below the limit, a box of side 3 is taken
        top = math.nextafter(2.0**48, 0)
        near = Box((top - 3.0,) * level.d, (top,) * level.d)
        points = []
        enumerate_stream(level, near, ladder, points.append)
        assert count_points(level, near, ladder) == len(points)

    @pytest.mark.parametrize("n", [4, 5])
    def test_deep_levels_stream_and_count_agree(self, n):
        # exercises the full merge/cascade schedules at d = 16 and d = 32
        level = Level(n)
        ladder = build_diag_ladder(level)
        box = Box.symmetric(2.5, level.d)
        points = []
        streamed = enumerate_stream(level, box, ladder, points.append)
        assert streamed == count_points(level, box, ladder)
        ks = {p.k for p in points}
        assert (0,) * level.d in ks
        assert ks == {tuple(-c for c in k) for k in ks}


def collect_batches(level, box, ladder, size):
    """Every batch as (K, X); checks shapes, dtypes and that only the last is short."""
    batches = list(enumerate_batches(level, box, ladder, size))
    for j, (K, X) in enumerate(batches):
        assert K.dtype == np.int64 and X.dtype == np.float64
        assert K.shape == X.shape and K.shape[1] == level.d
        assert 1 <= len(K) <= size
        assert len(K) == size or j == len(batches) - 1
    return batches


def assert_batches_match_stream(level, box, ladder, size):
    points = collect(level, box, ladder)
    batches = collect_batches(level, box, ladder, size)
    rows = [(tuple(k), tuple(x)) for K, X in batches for k, x in zip(K.tolist(), X.tolist())]
    assert rows == [(p.k, p.x) for p in points]
    if points:
        # bit-for-bit, signed zeros included
        X = np.concatenate([X for _, X in batches])
        assert X.tobytes() == np.array([p.x for p in points]).tobytes()
    return len(points)


class TestBatches:
    @pytest.mark.parametrize("n", range(6))
    def test_standard_and_randomized_boxes(self, n):
        level = Level(n)
        ladder = build_diag_ladder(level)
        spec = CubatureSpec(level, float(2 ** (10 if n < 4 else 5 if n == 4 else 2)))
        boxes = [standard_box(spec)] + [
            randomized_box(spec, sample_shift(seed, level.d), ladder)[0] for seed in (1, 2)
        ]
        for box in boxes:
            for size in (1, 7, 1024):
                assert assert_batches_match_stream(level, box, ladder, size) > 0

    @pytest.mark.parametrize("n", range(6))
    def test_small_off_centre_boxes(self, n):
        rng = random.Random(600 + n)
        level = Level(n)
        ladder = build_diag_ladder(level)
        span = 5.0 if n < 4 else 2.5
        for _ in range(8):
            box = random_box(rng, level.d, span)
            shift = tuple(rng.uniform(-30.0, 30.0) for _ in range(level.d))
            box = Box(
                tuple(a + c for a, c in zip(box.lower, shift)),
                tuple(b + c for b, c in zip(box.upper, shift)),
            )
            for size in (1, 7, 1024):
                assert_batches_match_stream(level, box, ladder, size)

    @pytest.mark.parametrize("n", range(6))
    def test_empty_box_yields_nothing(self, n):
        level = Level(n)
        ladder = build_diag_ladder(level)
        box = Box((1.0,) * level.d, (-1.0,) * level.d)
        assert collect_batches(level, box, ladder, 7) == []

    def test_runs_split_across_batches(self):
        # d = 2 at N = 2**12: innermost runs are ~45 points long, so a batch
        # of 16 rows always cuts a run, and some batches hold pieces of two
        level = Level(1)
        ladder = build_diag_ladder(level)
        box = cubature_box(1, 2**12)
        batches = collect_batches(level, box, ladder, 16)
        firsts = {tuple(K[0, :-1]) for K, _ in batches}
        assert len(firsts) < len(batches)
        assert any(len(set(map(tuple, K[:, :-1].tolist()))) > 1 for K, _ in batches)
        assert assert_batches_match_stream(level, box, ladder, 16) == 4095

    def test_one_dimension_is_one_long_run(self):
        # d = 1 has no butterfly chain, and its single run is longer than a batch
        level = Level(0)
        ladder = build_diag_ladder(level)
        box = Box((-1000.5,), (999.2,))
        batches = collect_batches(level, box, ladder, 7)
        assert len(batches) == 2000 // 7 + 1
        K = np.concatenate([K for K, _ in batches])
        X = np.concatenate([X for _, X in batches])
        assert K[:, 0].tolist() == list(range(-1000, 1000))
        assert X[:, 0].tolist() == [float(k) for k in range(-1000, 1000)]
        assert_batches_match_stream(level, box, ladder, 7)

    def test_huge_size_grows_the_buffer(self):
        # more rows than a buffer starts with, and a size no buffer could hold
        level = Level(0)
        ladder = build_diag_ladder(level)
        (K, X), = enumerate_batches(level, Box((-50000.5,), (50000.2,)), ladder, 10**12)
        assert K[:, 0].tolist() == list(range(-50000, 50001))
        assert X[:, 0].tolist() == [float(k) for k in range(-50000, 50001)]
        level = Level(1)
        box = cubature_box(1, 2**17)
        assert assert_batches_match_stream(level, box, build_diag_ladder(level), 10**12) > 2**17

    @pytest.mark.parametrize("size", [sys.maxsize, 2**62, 2**100])
    @pytest.mark.parametrize("n,box", [(0, Box((-3.5,), (3.2,))), (6, Box.symmetric(2.0, 64))])
    def test_sizes_past_a_buffer_mean_its_most_rows(self, n, box, size):
        # more rows than sys.maxsize bytes hold: one batch of every point, not
        # a ValueError or OverflowError at the first batch
        level = Level(n)
        ladder = build_diag_ladder(level)
        assert assert_batches_match_stream(level, box, ladder, size) > 0
        assert len(list(enumerate_batches(level, box, ladder, size))) == 1

    def test_each_batch_owns_its_arrays(self):
        level = Level(2)
        ladder = build_diag_ladder(level)
        box = cubature_box(2, 2**6)
        batches = collect_batches(level, box, ladder, 7)
        assert len(batches) > 3
        for K, X in batches:
            for A, dtype in ((K, np.int64), (X, np.float64)):
                assert A.dtype == dtype and A.shape == (len(K), level.d)
                assert A.flags.c_contiguous and A.flags.writeable
        K, X = batches[1]
        K[:] = 0
        X[:] = np.nan
        rows = [(tuple(k), tuple(x)) for K, X in batches for k, x in zip(K.tolist(), X.tolist())]
        points = collect(level, box, ladder)
        del points[7:14], rows[7:14]
        assert rows == [(p.k, p.x) for p in points]

    def test_calls_leave_no_reference_cycles(self):
        # a cycle would keep buffers alive until the collector runs
        level = Level(3)
        ladder = build_diag_ladder(level)
        box = cubature_box(3, 2**8)
        runs = [
            lambda: collect(level, box, ladder),
            lambda: collect_batches(level, box, ladder, 7),
            lambda: collect_batches(level, box, ladder, 1024),
        ]
        gc.collect()
        gc.disable()
        try:
            for run in runs:
                assert run()
                assert gc.collect() == 0
        finally:
            gc.enable()

    def test_bad_arguments_raise_at_call(self):
        level = Level(1)
        ladder = build_diag_ladder(level)
        with pytest.raises(ValueError):
            enumerate_batches(level, Box.symmetric(1.0, 2), ladder, 0)
        with pytest.raises(ValueError):
            enumerate_batches(level, Box.symmetric(1.0, 4), ladder)
        for size in (2.5, "4"):
            with pytest.raises(TypeError):
                enumerate_batches(level, Box.symmetric(1.0, 2), ladder, size)
        # the walker checks the size once, when the walk is made, and after
        # the box; a size past Py_ssize_t is clipped to it, and refused
        box, wrong = Box.symmetric(1.0, 2), Box.symmetric(1.0, 4)
        for size in (0, -1, -(2**100)):
            with pytest.raises(ValueError, match=rf"^batch size {max(size, -sys.maxsize - 1)} is"):
                enumerate_batches(level, box, ladder, size)
            with pytest.raises(ValueError, match="^box dimension 4 != lattice dimension 2$"):
                enumerate_batches(level, wrong, ladder, size)
        with pytest.raises(ValueError, match="^box dimension 4 != lattice dimension 2$"):
            enumerate_batches(level, wrong, ladder, 2.5)
        # any integer operator.index takes is a size
        [(K, _)] = enumerate_batches(level, box, ladder, np.int64(1000))
        assert len(K) == count_points(level, box, ladder)


corner = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)


@st.composite
def level_and_box(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    d = 1 << n
    pairs = draw(st.lists(st.tuples(corner, corner), min_size=d, max_size=d))
    return Level(n), Box(tuple(min(p) for p in pairs), tuple(max(p) for p in pairs))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(level_and_box(), st.sampled_from([1, 3, 1024]))
def test_batches_agree_with_oracle(case, size):
    level, box = case
    ladder = build_diag_ladder(level)
    rows = [
        (k, x)
        for K, X in enumerate_batches(level, box, ladder, size)
        for k, x in zip(map(tuple, K.tolist()), map(tuple, X.tolist()))
    ]
    assert rows == [(p.k, p.x) for p in oracle_enumerate(level, box)]


def face_boxes(x):
    """Boxes with the image x on their faces, and whether x is in each."""
    up = tuple(v + 1.0 for v in x)
    down = tuple(v - 1.0 for v in x)
    past = tuple(math.nextafter(v, math.inf) for v in x)
    return [(Box(x, x), True), (Box(x, up), True), (Box(down, x), True), (Box(past, up), False)]


@st.composite
def lattice_vector(draw, levels):
    level = Level(draw(st.sampled_from(levels)))
    scale = draw(st.sampled_from([10, 10**3, 10**6] + [10**9, 10**12] * (level.n > 3)))
    k = draw(st.lists(st.integers(-scale, scale), min_size=level.d, max_size=level.d))
    return level, tuple(k)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lattice_vector([0, 1, 2, 3]))
@example((Level(2), (773, 455, -764, 612)))  # k_4 lies 2.6u (1 + max|corner|) below its bound
def test_face_boxes_agree_with_oracle(case):
    # the image of k lies on a face of each box: it is in iff the closed box holds it
    level, k = case
    ladder = build_diag_ladder(level)
    for box, holds in face_boxes(apply_generator(ladder, k)):
        points = collect(level, box, ladder)
        emitted = assert_batches_match_stream(level, box, ladder, 3)
        assert count_points(level, box, ladder) == emitted
        assert points == recursive_enumerate(level, box) == oracle_enumerate(level, box)
        assert (k in {p.k for p in points}) == holds


@settings(max_examples=50, deadline=None, derandomize=True)
@given(lattice_vector([4, 5]))
# a count (difference-first) with a slack of 2**-50 missed k in [Gk, Gk]
@example((Level(5), (1, -4, -5, 5, 3, -3, 1, -3, 1, 5, -5, -4, 2, 5, 0, 4,
                     3, -5, -4, 1, 1, 2, 0, 2, -5, -5, -4, 3, 3, 1, 2, -1)))
def test_deep_face_boxes_agree_with_reference(case):
    level, k = case
    ladder = build_diag_ladder(level)
    for box, holds in face_boxes(apply_generator(ladder, k)):
        points = collect(level, box, ladder)
        assert points == recursive_enumerate(level, box)
        assert count_points(level, box, ladder) == len(points)
        assert (k in {p.k for p in points}) == holds


def test_d64_face_boxes_count_like_the_stream():
    # a count's bounds err most at d = 64, up to 20u (1 + max|corner|): with
    # a count slack of 2**-50 it missed some of the random k, and with 2**-49
    # the first k, which lies 17.6u (1 + max|corner|) past a bound on its path
    level = Level(6)
    ladder = build_diag_ladder(level)
    rng = random.Random(6464)
    ks = [(5, -1, -4, 4, 5, -5, 4, -5, -3, -5, -3, -5, -3, -3, -1, 4, 0, 4, 3, 0, -1, -4,
           4, -1, -1, -1, -2, 3, -1, 4, 5, 5, -2, -5, 5, 1, -5, -5, 5, 2, -1, 1, 0, -1,
           -4, 5, 4, -3, -2, 2, 5, 2, 0, 3, 0, -1, -3, -1, -2, 5, -2, -4, 5, -2)]
    ks += [tuple(rng.randint(-10**12, 10**12) for _ in range(level.d)) for _ in range(20)]
    for k in ks:
        for box, holds in face_boxes(apply_generator(ladder, k)):
            points = collect(level, box, ladder)
            assert count_points(level, box, ladder) == len(points)
            assert (k in {p.k for p in points}) == holds


def chunk_boxes(level, ladder, rng):
    """A cube about a lattice image, and boxes in it holding 0, 1, 3 and
    chunk - 1, chunk and chunk + 1 points, chunk the rows of a stream's first
    walk, each with its count."""
    d, chunk = level.d, 1024 // level.d
    centre = apply_generator(ladder, [rng.randint(-3, 3) for _ in range(d)])
    r = 0.5
    while True:
        cube = Box(tuple(v - r for v in centre), tuple(v + r for v in centre))
        if count_points(level, cube, ladder) >= chunk + 2:
            break
        r *= 1.25
    # the m points of the cube with the least first coordinate: the images
    # of distinct lattice points differ in every coordinate
    firsts = sorted(p.x[0] for p in collect(level, cube, ladder))
    cuts = []
    for m in (0, 1, 3, chunk - 1, chunk, chunk + 1):
        cut = firsts[0] - 1.0 if m == 0 else (firsts[m - 1] + firsts[m]) / 2
        cuts.append((Box(cube.lower, (cut,) + cube.upper[1:]), m))
    return cube, cuts


@pytest.mark.parametrize("n", range(MAX_LEVEL + 1))
def test_streams_that_fit_a_chunk_match_the_batches(n):
    # from d = 8 a stream walks its first chunk difference-first and sorts it,
    # and walks a box that does not fit again, mean-first: both give the
    # batches' rows, in their order and to the bit
    level = Level(n)
    ladder = build_diag_ladder(level)
    rng = random.Random(2400 + n)
    cube, cuts = chunk_boxes(level, ladder, rng)
    x = apply_generator(ladder, [rng.randint(-16, 16) for _ in range(level.d)])
    faces = [(Box(x, x), None), (Box(x, tuple(v + 1.0 for v in x)), None)]
    # one sweep of the oracle: a box in the cube keeps the cube's points it holds
    swept = oracle_enumerate(level, cube) if n <= 3 else []
    for box, holds in cuts + faces:
        emitted = assert_batches_match_stream(level, box, ladder, 5)
        assert count_points(level, box, ladder) == emitted
        if holds is not None:
            assert emitted == holds
        if n <= 3:
            expected = oracle_enumerate(level, box) if holds is None else [
                p for p in swept if all(map(operator.le, box.lower, p.x))
                and all(map(operator.le, p.x, box.upper))
            ]
            assert collect(level, box, ladder) == expected


def assert_negation_maps(level, box, ladder):
    """-B holds the negated points of B, in reverse order, with images negated
    exactly: IEEE rounding is symmetric, so G(-k) is -Gk to the bit.  The
    walker checked against itself, at any d and at the faces too."""
    mirror = Box(tuple(-v for v in box.upper), tuple(-v for v in box.lower))
    points, mirrored = collect(level, box, ladder), collect(level, mirror, ladder)
    negated = [LatticePoint(tuple(-c for c in p.k), tuple(-v for v in p.x)) for p in points]
    assert mirrored == negated[::-1]
    assert count_points(level, mirror, ladder) == count_points(level, box, ladder) == len(points)
    return points


@pytest.mark.parametrize("n", range(7))
def test_negation_maps_face_boxes(n):
    # past the oracle's d <= 8: [Gk, Gk], [Gk, Gk + 1] and [Gk - 1, Gk]
    level = Level(n)
    ladder = build_diag_ladder(level)
    rng = random.Random(900 + n)
    for _ in range(40):
        k = tuple(rng.randint(-5, 5) for _ in range(level.d))
        x = apply_generator(ladder, k)
        up, down = tuple(v + 1.0 for v in x), tuple(v - 1.0 for v in x)
        for box in (Box(x, x), Box(x, up), Box(down, x)):
            assert k in {p.k for p in assert_negation_maps(level, box, ladder)}


@st.composite
def box_near_a_lattice_point(draw):
    level = Level(draw(st.integers(min_value=0, max_value=4)))
    k = draw(st.lists(st.integers(-1000, 1000), min_size=level.d, max_size=level.d))
    side = st.lists(st.floats(0.0, 2.5), min_size=level.d, max_size=level.d)
    below, above = draw(side), draw(side)
    x = apply_generator(build_diag_ladder(level), k)
    return level, Box(tuple(map(operator.sub, x, below)), tuple(map(operator.add, x, above)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(box_near_a_lattice_point())
def test_negation_maps_small_boxes(case):
    level, box = case
    assert_negation_maps(level, box, build_diag_ladder(level))


@st.composite
def symmetric_box(draw):
    """A box [-h, h] and its level: h is |Gk| (faces), |Gk| moved one ulp
    either way in each coordinate, random, or |Gk| with some coordinates 0
    (corners -0.0 and 0.0).  Past d = 4, k has one or two entries +-1, which
    keeps the oracle's sweep and the stream's search tree small.  One box in
    about four has one lower corner moved in, so it is not symmetric."""
    level = Level(draw(st.integers(min_value=0, max_value=6)))
    d = level.d
    if level.n <= 2:
        k = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    else:
        k = [0] * d
        for j in draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=2, unique=True)):
            k[j] = draw(st.sampled_from([-1, 1]))
    face = [abs(v) for v in apply_generator(build_diag_ladder(level), k)]
    kind = draw(st.sampled_from(["face", "ulp", "random", "zero"]))
    flags = draw(st.lists(st.booleans(), min_size=d, max_size=d)) if kind in ("ulp", "zero") else []
    if kind == "ulp":
        half = [abs(math.nextafter(v, math.inf if up else -math.inf)) for v, up in zip(face, flags)]
    elif kind == "random":  # past d = 4, within the faces
        factors = draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d))
        half = [4.0 * f if level.n <= 2 else f * v for v, f in zip(face, factors)]
    elif kind == "zero":
        half = [0.0 if zero else v for v, zero in zip(face, flags)]
    else:
        half = face
    lower = [-v for v in half]
    if draw(st.integers(0, 3)) == 0:
        lower[draw(st.integers(0, d - 1))] *= draw(st.floats(0.0, 0.5))
    return level, Box(lower, half)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(symmetric_box())
def test_symmetric_boxes_count_like_the_stream(case):
    # a count of a box symmetric about 0 walks only the k whose first nonzero
    # coordinate in its order (k_d, k_{d-1}, ...) is positive and counts their
    # runs twice; the stream walks the whole tree, and so does the count of a
    # box symmetric in all coordinates but one
    level, box = case
    ladder = build_diag_ladder(level)
    points = collect(level, box, ladder)
    assert count_points(level, box, ladder) == len(points)
    if level.n <= 3:
        assert points == oracle_enumerate(level, box)


@st.composite
def swap_symmetric_box(draw):
    """A box [-h, h] with equal halves, h_t = h_{t+d/2} = max(|x_t|,
    |x_{t+d/2}|) of an image x = Gk, so points lie on its faces; or each
    pair moved one ulp either way, some pairs 0 (corners -0.0 and 0.0), or
    random within the faces.  Past d = 4, k has one or two entries +-1.  One
    box in about four has one corner moved one ulp, so its halves differ and
    the count takes the half walk (or the full walk)."""
    level = Level(draw(st.integers(min_value=1, max_value=6)))
    d, h = level.d, level.d // 2
    if level.n <= 2:
        k = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    else:
        k = [0] * d
        for j in draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=2, unique=True)):
            k[j] = draw(st.sampled_from([-1, 1]))
    x = apply_generator(build_diag_ladder(level), k)
    face = [max(abs(x[t]), abs(x[t ^ h])) for t in range(h)]
    kind = draw(st.sampled_from(["face", "ulp", "random", "zero"]))
    flags = draw(st.lists(st.booleans(), min_size=h, max_size=h))
    if kind == "ulp":
        half = [math.nextafter(v, math.inf if up else -math.inf) for v, up in zip(face, flags)]
    elif kind == "random":
        half = [f * v for v, f in zip(face, draw(st.lists(st.floats(0.0, 1.0), min_size=h, max_size=h)))]
    elif kind == "zero":
        half = [0.0 if zero else v for v, zero in zip(face, flags)]
    else:
        half = face
    half = [abs(v) for v in half] * 2
    lower, upper = [-v for v in half], half
    if draw(st.integers(0, 3)) == 0:
        corner, t = draw(st.sampled_from([lower, upper])), draw(st.integers(0, d - 1))
        corner[t] = math.nextafter(corner[t], draw(st.sampled_from([-math.inf, math.inf])))
    return level, Box(lower, upper)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(swap_symmetric_box())
def test_swap_symmetric_boxes_count_like_the_stream(case):
    # a count of a box symmetric about 0 whose corners have equal halves
    # walks a quarter of the tree: kY halved by -I, then kA for each kY
    level, box = case
    ladder = build_diag_ladder(level)
    points = collect(level, box, ladder)
    assert count_points(level, box, ladder) == len(points)
    if level.n <= 3:
        assert points == oracle_enumerate(level, box)


def galois_permutation(n, m):
    """The coordinate permutation p of the automorphism zeta -> zeta**m (m odd)
    of the 4d-th roots of unity.  Coordinate i carries the root 2 cos(pi j / 2d),
    j = 2 root_permutation(n, i + 1) - 1, which goes to 2 cos(pi m j / 2d), the
    root of coordinate p[i]: m j = +-j' mod 4d.  The lattice holds
    (x[p[0]], ..., x[p[d-1]]) whenever it holds x."""
    d = 1 << n
    js = [2 * root_permutation(n, i) - 1 for i in range(1, d + 1)]
    where = {j: i for i, j in enumerate(js)}
    return [where[min(m * j % (4 * d), -m * j % (4 * d))] for j in js]


#: Scales of the randomized boxes of the Galois test per level n (d = 2**n).
GALOIS_SCALES = {1: 2.0**12, 2: 2.0**12, 3: 2.0**11, 4: 2.0**11, 5: 2.0**9}


@pytest.mark.parametrize("n", range(1, 7))
def test_galois_permutations_map_boxes(n):
    # past the oracle's d <= 8, away from faces: a box with random corners
    # and its image under a random Galois permutation hold as many points;
    # up to d = 16 the integer matrix S with G S = P G maps the k-sets
    level = Level(n)
    d = level.d
    ladder = build_diag_ladder(level)
    rng = random.Random(1200 + n)
    boxes = []
    for _ in range(6):
        x = apply_generator(ladder, [rng.randint(-50, 50) for _ in range(d)])
        lower = [v - rng.uniform(0.5, 4.0) for v in x]
        boxes.append(Box(lower, [v + rng.uniform(0.5, 4.0) for v in x]))
    if n in GALOIS_SCALES:
        spec = CubatureSpec(level, GALOIS_SCALES[n])
        boxes += [randomized_box(spec, sample_shift(seed, d), ladder)[0] for seed in (n, n + 10)]
    G = build_generator_matrix(level, ladder)
    for box in boxes:
        p = galois_permutation(n, rng.randrange(3, 2 * d, 2))
        image = Box([box.lower[i] for i in p], [box.upper[i] for i in p])
        assert count_points(level, image, ladder) == count_points(level, box, ladder)
        if n > 4:
            continue
        S = np.linalg.solve(G, G[p])
        assert np.abs(S - np.round(S)).max() < 1e-9
        ks = np.array([q.k for q in collect(level, box, ladder)], np.int64).reshape(-1, d)
        mapped = ks @ np.round(S).astype(np.int64).T
        assert set(map(tuple, mapped.tolist())) == {q.k for q in collect(level, image, ladder)}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("scale", [10**12, 10**13, 10**14, 10**15])
def test_far_boxes_stay_cheap(n, scale):
    # the slack widens every range: a far box must not open the search tree
    # (20 counts take about 3 ms, with a slack of 2**-44 several seconds);
    # past corners of 2**48 the slack passes 1/4, and d = 16 near k = 1e14
    # never ended, so such boxes are refused at once
    level = Level(n)
    ladder = build_diag_ladder(level)
    rng = random.Random(16)
    start = time.perf_counter()
    for _ in range(20):
        k = [rng.randint(scale - 10**6, scale + 10**6) for _ in range(level.d)]
        x = apply_generator(ladder, k)
        box = Box(tuple(v - 1.5 for v in x), tuple(v + 1.5 for v in x))
        if max(map(abs, box.lower + box.upper)) < 2.0**48:
            # k, k +- e_1 and k +- e_2: columns of G with entries 1, +-sqrt(2)
            assert count_points(level, box, ladder) == 5
        else:
            with pytest.raises(ValueError, match=r"2\*\*48"):
                count_points(level, box, ladder)
    assert time.perf_counter() - start < 0.5
