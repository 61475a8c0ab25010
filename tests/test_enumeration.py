import gc
import math
import os
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
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
    build_generator_matrix,
    count_points,
    enumerate_batches,
    enumerate_stream,
    oracle_enumerate,
    randomized_box,
    sample_shift,
    standard_box,
)
from chebfrolov import enumeration
from chebfrolov.enumeration import _library
from chebfrolov.verify import _images, clamp_bounds, interval_mean, recursive_enumerate

SQRT2 = math.sqrt(2.0)


def random_box(rng, d, span=5.0):
    corners = [sorted((rng.uniform(-span, span), rng.uniform(-span, span))) for _ in range(d)]
    return Box(tuple(c[0] for c in corners), tuple(c[1] for c in corners))


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
        with pytest.raises(ValueError):
            Box((float("nan"),), (1.0,))
        with pytest.raises(ValueError):
            Box((0.0,), (float("inf"),))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Box((0.0, 1.0), (2.0,))

    def test_empty_allowed(self):
        box = Box((1.0,), (-1.0,))
        assert box.lower[0] > box.upper[0]


class TestIntervalMean:
    def test_scalar_pair(self):
        assert interval_mean(0, (2.0, 4.0)) == (3.0,)

    def test_equal_halves(self):
        assert interval_mean(0, (-1.0, -1.0)) == (-1.0,)

    def test_vector_halves(self):
        assert interval_mean(1, (0.0, 2.0, 4.0, 6.0)) == (2.0, 4.0)


class TestClampBounds:
    def test_centered_anchor(self):
        ladder = build_diag_ladder(Level(1))
        lo, hi = clamp_bounds(0, (0.0,), (-1.0, -1.0), (1.0, 1.0), ladder)
        assert lo == pytest.approx((-1.0 / SQRT2,), abs=1e-15)
        assert hi == pytest.approx((1.0 / SQRT2,), abs=1e-15)

    def test_shifted_anchor_pinches_to_point(self):
        ladder = build_diag_ladder(Level(1))
        lo, hi = clamp_bounds(0, (1.0,), (-1.0, -1.0), (1.0, 1.0), ladder)
        assert lo == (0.0,)
        assert hi == (0.0,)

    def test_degenerate_box(self):
        ladder = build_diag_ladder(Level(1))
        anchor = interval_mean(0, (0.0, 0.0))
        lo, hi = clamp_bounds(0, anchor, (0.0, 0.0), (0.0, 0.0), ladder)
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
            mb = interval_mean(L, box.lower)
            mc = interval_mean(L, box.upper)
            anchor = tuple(rng.uniform(a, b) for a, b in zip(mb, mc))
            lo, hi = clamp_bounds(L, anchor, box.lower, box.upper, ladder)
            assert all(x <= y for x, y in zip(lo, hi))

    def test_missing_ladder_level(self):
        ladder = build_diag_ladder(Level(1))
        with pytest.raises(ValueError):
            clamp_bounds(1, (0.0, 0.0), (0.0,) * 4, (1.0,) * 4, ladder)


class TestApplyGenerator:
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
        # the scalar merge tree and the row-wise one perform the same operations
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
            assert got.tobytes() == _images(ladder, np.array([v], dtype=np.float64))[0].tobytes()

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


class TestKernels:
    """One compiled walker, built on first use and cached beside the module."""

    def test_import_loads_no_library_and_starts_no_compiler(self):
        code = COUNT_PROCESSES + (
            "import chebfrolov, chebfrolov.enumeration as e\n"
            "print(e._library.cache_info().currsize, len(started))"
        )
        assert run_child(code) == ["0", "0"]

    def test_second_process_reuses_the_cached_library(self):
        code = COUNT_PROCESSES + (
            "import chebfrolov as cf, chebfrolov.enumeration as e\n"
            "level = cf.Level(3)\n"
            "box = cf.Box.symmetric(3.0, level.d)\n"
            "print(cf.count_points(level, box, cf.build_diag_ladder(level)),"
            " e._library()._name, len(started))"
        )
        count, path, _ = run_child(code)  # builds the library unless it is cached
        assert count == "63"
        assert path == _library()._name
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

    def test_walker_compiles_without_warnings(self):
        source = Path(chebfrolov.__file__).with_name("_walk.c")
        proc = subprocess.run(
            ["cc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(source)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

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
        broken = DiagLadder(((math.nan,),) + ladder.levels[1:])
        with pytest.raises(ValueError, match="finite"):
            count_points(level, box, broken)
        # a non-positive diagonal reverses or voids the walker's bounds: the
        # walk would count 0 and fill 2 rows where 15 points lie in the box
        small, small_box = Level(1), Box.symmetric(3.0, 2)
        for bad in (-SQRT2, 0.0):
            broken = DiagLadder(((bad,),))
            with pytest.raises(ValueError, match="positive"):
                count_points(small, small_box, broken)
            with pytest.raises(ValueError, match="positive"):
                enumerate_batches(small, small_box, broken)

    def test_diagonal_buffer_is_cached_by_ladder(self):
        level = Level(4)
        ladder = build_diag_ladder(level)
        box = Box.symmetric(3.0, level.d)
        buffer = enumeration._prepare(level, box, ladder)[2]
        before = enumeration._diagonals.cache_info()
        # an equal ladder built anew, from lists, has the same hash and the same buffer
        same = DiagLadder([list(diag) for diag in ladder.levels])
        assert hash(same) == hash(ladder)
        assert enumeration._prepare(level, box, same)[2] is buffer
        assert enumeration._prepare(level, box, ladder)[2] is buffer
        after = enumeration._diagonals.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
        # a lower level of the same ladder takes its own, shorter buffer
        assert len(enumeration._prepare(Level(2), Box.symmetric(3.0, 4), ladder)[2]) == 3
        # refusals are not cached: every call repeats them
        broken = DiagLadder(((math.nan,),) + ladder.levels[1:])
        for _ in range(2):
            with pytest.raises(ValueError, match="finite"):
                count_points(level, box, broken)

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
                mb = interval_mean(n, box.lower)
                mc = interval_mean(n, box.upper)
                cond1 = all(lo <= v <= hi for v, lo, hi in zip(first, mb, mc))
                lo2, hi2 = clamp_bounds(n, tuple(first), box.lower, box.upper, ladder)
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
