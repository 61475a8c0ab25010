import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebfrolov import (
    Box,
    CubatureSpec,
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
from chebfrolov.enumeration import EnumState
from chebfrolov.verify import ORACLE_TOLERANCE, clamp_bounds, interval_mean, recursive_enumerate

SQRT2 = math.sqrt(2.0)


def random_box(rng, d, span=5.0):
    corners = [sorted((rng.uniform(-span, span), rng.uniform(-span, span))) for _ in range(d)]
    return Box(tuple(c[0] for c in corners), tuple(c[1] for c in corners))


def collect(level, box, ladder, **kwargs):
    points = []
    enumerate_stream(level, box, ladder, points.append, **kwargs)
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
    @pytest.mark.parametrize("n", range(4))
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
        rng = random.Random(78)
        for n in range(4):
            level = Level(n)
            ladder = build_diag_ladder(level)
            for _ in range(10):
                box = random_box(rng, level.d)
                eps = 1e-9 * (1.0 + max(abs(v) for v in box.lower + box.upper))
                for p in collect(level, box, ladder):
                    assert all(
                        lo - eps <= xi <= hi + eps
                        for xi, lo, hi in zip(p.x, box.lower, box.upper)
                    )

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

    def test_state_tables_have_fixed_footprint(self):
        level = Level(3)
        box = Box.symmetric(4.0, 8)
        state = EnumState(level, box, build_diag_ladder(level), 0.0)
        for table in (state.alpha, state.beta, state.gamma):
            assert len(table) == level.n + 1
            assert all(len(row) == level.d for row in table)
        # valuation decomposes every index as odd * 2**r
        for i in range(1, level.d + 1):
            r, p = state.valuation[i]
            assert i == (1 << r) * p and p % 2 == 1

    def test_dimension_mismatch_rejected(self):
        level = Level(1)
        ladder = build_diag_ladder(level)
        with pytest.raises(ValueError):
            enumerate_stream(level, Box.symmetric(1.0, 4), ladder, lambda p: None)


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

    def test_boundary_eps(self):
        level = Level(0)
        ladder = build_diag_ladder(level)
        box = Box((0.2,), (0.9,))
        assert count_points(level, box, ladder) == 0
        assert count_points(level, box, ladder, boundary_eps=0.25) == 2

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

    def test_boundary_eps_passed_through(self):
        level = Level(0)
        ladder = build_diag_ladder(level)
        box = Box((0.2,), (0.9,))
        assert collect_batches(level, box, ladder, 4) == []
        (K, X), = enumerate_batches(level, box, ladder, 4, boundary_eps=0.25)
        assert K[:, 0].tolist() == [0, 1]

    def test_bad_arguments_raise_at_call(self):
        level = Level(1)
        ladder = build_diag_ladder(level)
        with pytest.raises(ValueError):
            enumerate_batches(level, Box.symmetric(1.0, 2), ladder, 0)
        with pytest.raises(ValueError):
            enumerate_batches(level, Box.symmetric(1.0, 4), ladder)
        with pytest.raises(ValueError):
            enumerate_batches(level, Box.symmetric(1.0, 2), ladder, boundary_eps=-1.0)


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
    # The oracle accepts images up to ORACLE_TOLERANCE outside the box, while
    # the enumerator decides on the exact box; they must agree on every point
    # whose image is farther than twice that from every face.
    level, box = case
    ladder = build_diag_ladder(level)
    rows = [
        k for K, _ in enumerate_batches(level, box, ladder, size) for k in map(tuple, K.tolist())
    ]
    oracle = oracle_enumerate(level, box)
    emitted = set(rows)
    assert rows == [p.k for p in oracle if p.k in emitted]
    band = 2 * ORACLE_TOLERANCE
    for p in oracle:
        if all(lo + band < x < hi - band for x, lo, hi in zip(p.x, box.lower, box.upper)):
            assert p.k in emitted
