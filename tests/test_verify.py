import random

import numpy as np
import pytest

from chebfrolov import (
    Box,
    CubatureSpec,
    Level,
    build_diag_ladder,
    build_generator_matrix,
    build_vandermonde,
    count_points,
    double_box_check,
    enumerate_batches,
    enumerate_stream,
    load_golden_table,
    oracle_enumerate,
    reproduce_table,
    standard_box,
    unimodular_check,
)
from chebfrolov.verify import _eliminate, recursive_enumerate


def random_box(rng, d, span=5.0):
    corners = [sorted((rng.uniform(-span, span), rng.uniform(-span, span))) for _ in range(d)]
    return Box(tuple(c[0] for c in corners), tuple(c[1] for c in corners))


class TestGoldenTable:
    def test_shape(self):
        table = load_golden_table()
        assert len(table) == 150
        dims = {rec.d for rec in table}
        assert dims == {2, 4, 8, 16, 32}
        for d in dims:
            assert sorted(rec.log2n for rec in table if rec.d == d) == list(range(1, 31))

    def test_known_entries(self):
        lookup = {(rec.d, rec.log2n): rec.count for rec in load_golden_table()}
        assert lookup[(2, 1)] == 3
        assert lookup[(4, 10)] == 1025
        assert lookup[(8, 14)] == 16413
        assert lookup[(16, 1)] == 77
        assert lookup[(32, 2)] == 4105
        assert lookup[(4, 20)] == 1048609

    def test_counts_never_decrease_with_scale(self):
        table = load_golden_table()
        for d in (2, 4, 8, 16, 32):
            counts = [rec.count for rec in sorted(
                (r for r in table if r.d == d), key=lambda r: r.log2n)]
            assert all(a <= b for a, b in zip(counts, counts[1:]))


class TestOracle:
    def test_square_box(self):
        level = Level(1)
        pts = oracle_enumerate(level, Box.symmetric(2.0, 2))
        assert {p.k for p in pts} == {
            (-2, 0), (-1, 0), (0, 0), (1, 0), (2, 0), (0, 1), (0, -1)
        }

    def test_interval(self):
        pts = oracle_enumerate(Level(0), Box((-1.5,), (1.5,)))
        assert [p.k for p in pts] == [(-1,), (0,), (1,)]

    def test_small_cubature_box(self):
        level = Level(2)
        box = standard_box(CubatureSpec(level, 2.0))
        assert len(oracle_enumerate(level, box)) == 5

    def test_empty_box(self):
        assert oracle_enumerate(Level(1), Box((1.0, 1.0), (-1.0, -1.0))) == []

    def test_refuses_large_level(self):
        with pytest.raises(ValueError):
            oracle_enumerate(Level(4), Box.symmetric(1.0, 16))

    def test_agrees_with_both_enumerators(self):
        rng = random.Random(2024)
        for n in range(4):
            level = Level(n)
            ladder = build_diag_ladder(level)
            for _ in range(10):
                box = random_box(rng, level.d)
                expected = {p.k for p in oracle_enumerate(level, box)}
                rec = {p.k for p in recursive_enumerate(level, box)}
                got = []
                enumerate_stream(level, box, ladder, got.append)
                assert rec == expected
                assert {p.k for p in got} == expected


class TestDoubleBox:
    @pytest.mark.parametrize(
        "n,scale,expected",
        [(2, 2**6, 71), (1, 2, 3), (0, 1, None)],
    )
    def test_examples(self, n, scale, expected):
        check = double_box_check(Level(n), float(scale))
        assert check.agree
        assert check.direct == check.filtered
        if expected is not None:
            assert check.direct == expected

    def test_small_box_points_subset_of_double(self):
        for n, scale in [(1, 8.0), (2, 16.0), (3, 4.0)]:
            level = Level(n)
            ladder = build_diag_ladder(level)
            small = standard_box(CubatureSpec(level, scale))
            big = standard_box(CubatureSpec(level, 2.0 * scale))
            assert all(b < s for s, b in zip(small.lower, big.lower))
            small_ks = set()
            big_ks = set()
            enumerate_stream(level, small, ladder, lambda p: small_ks.add(p.k))
            enumerate_stream(level, big, ladder, lambda p: big_ks.add(p.k))
            assert small_ks <= big_ks


class TestDoubleBoxMatchesNumpy:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_filtered_equals_numpy_filter(self, n):
        level = Level(n)
        ladder = build_diag_ladder(level)
        for log2n in range(1, 11):
            scale = float(2**log2n)
            small = standard_box(CubatureSpec(level, scale))
            big = standard_box(CubatureSpec(level, 2.0 * scale))
            lower, upper = np.array(small.lower), np.array(small.upper)
            expected = sum(
                int(np.all((X >= lower) & (X <= upper), axis=1).sum())
                for _, X in enumerate_batches(level, big, ladder)
            )
            check = double_box_check(level, scale)
            assert check.filtered == expected == check.direct


class TestUnimodularMatchesNumpy:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_solve_and_det(self, n):
        level = Level(n)
        vand = build_vandermonde(level)
        gen = build_generator_matrix(level, build_diag_ladder(level))
        s, det_vand = _eliminate(vand.tolist(), gen.tolist())
        expected = np.linalg.solve(vand, gen)
        assert np.max(np.abs(np.array(s) - expected)) < 1e-12
        assert abs(det_vand - np.linalg.det(vand)) <= 1e-12 * abs(det_vand)
        _, det = _eliminate(s, [[]] * level.d)
        assert abs(abs(det) - abs(np.linalg.det(expected))) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_deviations_match_numpy(self, n):
        level = Level(n)
        s = np.linalg.solve(
            build_vandermonde(level), build_generator_matrix(level, build_diag_ladder(level))
        )
        check = unimodular_check(level)
        assert check.passed
        assert check.max_integer_deviation < 1e-12 and check.det_deviation < 1e-12
        assert abs(check.max_integer_deviation - np.max(np.abs(s - np.round(s)))) < 1e-12
        assert abs(check.det_deviation - abs(abs(np.linalg.det(s)) - 1.0)) < 1e-12

    def test_singular_matrix(self):
        assert _eliminate([[1.0, 2.0], [2.0, 4.0]], [[1.0], [2.0]]) == (None, 0.0)
        x, det = _eliminate([[0.0, 2.0], [3.0, 0.0]], [[4.0], [9.0]])
        assert x == [[3.0], [2.0]] and det == -6.0  # a row swap flips the sign


class TestUnimodular:
    def test_identity_at_base(self):
        check = unimodular_check(Level(0))
        assert check.passed
        assert check.max_integer_deviation == 0.0
        assert check.det_deviation == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_passes_through_level_three(self, n):
        check = unimodular_check(Level(n))
        assert check.passed
        assert check.max_integer_deviation < 1e-6
        assert check.det_deviation < 1e-6

    def test_refuses_large_level(self):
        with pytest.raises(ValueError):
            unimodular_check(Level(4))


class TestReproduceTable:
    def test_small_dimensions_match(self):
        checks = reproduce_table(Level(2), 10)
        assert len(checks) == 20  # d in {2, 4}, m = 1..10
        assert all(c.match for c in checks)
        d2 = [c.observed for c in checks if c.record.d == 2]
        assert d2 == [3, 5, 7, 15, 31, 65, 131, 257, 513, 1027]

    def test_counts_come_from_enumeration(self):
        checks = reproduce_table(Level(3), 5)
        for check in checks:
            level = Level.from_dimension(check.record.d)
            box = standard_box(CubatureSpec(level, float(2**check.record.log2n)))
            assert check.observed == count_points(level, box, build_diag_ladder(level))

    def test_covers_sixteen_dimensions(self):
        checks = reproduce_table(Level(4), 1)
        by_dim = {c.record.d: c for c in checks}
        assert set(by_dim) == {2, 4, 8, 16}
        assert by_dim[16].observed == 77
        assert all(c.match for c in checks)
