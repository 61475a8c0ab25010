import math

import numpy as np
import pytest

from chebfrolov import (
    Level,
    build_diag_ladder,
    build_generator_matrix,
    build_vandermonde,
    chebyshev_root,
    det_magnitude,
    rescaled_chebyshev,
    root_permutation,
)

SQRT2 = math.sqrt(2.0)


class TestLevel:
    def test_dimension(self):
        assert Level(0).d == 1
        assert Level(3).d == 8
        assert Level(5).d == 32

    def test_default_cap(self):
        # The one limit is d <= 64: Level(6) works, the next level does not.
        assert Level(6).d == 64
        with pytest.raises(ValueError, match="64"):
            Level(7)
        with pytest.raises(ValueError, match="64"):
            Level.from_dimension(128)

    def test_cap_override(self):
        # The limit cannot be raised: neither constructor takes a cap.
        with pytest.raises(TypeError):
            Level(7, max_n=7)
        with pytest.raises(TypeError):
            Level.from_dimension(128, max_n=7)

    def test_rejects_negative_and_non_integer(self):
        with pytest.raises(ValueError):
            Level(-1)
        with pytest.raises(ValueError):
            Level(1.0)

    def test_from_dimension(self):
        assert Level.from_dimension(1).n == 0
        assert Level.from_dimension(16).n == 4
        for bad in (0, 3, 6, 12, -4):
            with pytest.raises(ValueError):
                Level.from_dimension(bad)

    def test_from_dimension_takes_only_integers(self):
        # like Level(n): an integer index is a dimension, a bool or a float is not
        assert Level.from_dimension(np.int64(8)) == Level(3)
        for bad in (True, False, 4.0, "4", None):
            with pytest.raises(ValueError, match="integer"):
                Level.from_dimension(bad)


class TestPermutation:
    def test_base_case(self):
        assert root_permutation(0, 1) == 1

    def test_level_two(self):
        # hand-evaluated recursion: keep first half, reflect second through 2d+1
        assert [root_permutation(2, k) for k in range(1, 5)] == [1, 2, 4, 3]

    def test_level_three(self):
        assert [root_permutation(3, k) for k in range(1, 9)] == [1, 2, 4, 3, 8, 7, 5, 6]

    @pytest.mark.parametrize("n", range(7))
    def test_bijective(self, n):
        d = 2**n
        image = {root_permutation(n, k) for k in range(1, d + 1)}
        assert image == set(range(1, d + 1))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            root_permutation(2, 0)
        with pytest.raises(ValueError):
            root_permutation(2, 5)
        with pytest.raises(ValueError):
            root_permutation(-1, 1)


class TestRoots:
    def test_level_one_values(self):
        assert chebyshev_root(1, 1) == pytest.approx(SQRT2, abs=1e-15)
        assert chebyshev_root(1, 2) == pytest.approx(-SQRT2, abs=1e-15)

    def test_level_two_values(self):
        # permutation (1, 2, 4, 3) pushed through 2*cos(pi*(2p-1)/8)
        expected = [
            2.0 * math.cos(math.pi / 8.0),
            2.0 * math.cos(3.0 * math.pi / 8.0),
            2.0 * math.cos(7.0 * math.pi / 8.0),
            2.0 * math.cos(5.0 * math.pi / 8.0),
        ]
        got = [chebyshev_root(2, k) for k in range(1, 5)]
        assert got == pytest.approx(expected, abs=1e-15)
        assert got[0] == pytest.approx(1.84775906, abs=1e-8)
        assert got[1] == pytest.approx(0.76536686, abs=1e-8)

    @pytest.mark.parametrize("n", range(6))
    def test_roots_annihilate_polynomial(self, n):
        d = 2**n
        for k in range(1, d + 1):
            x = chebyshev_root(n, k)
            assert -2.0 < x < 2.0
            assert abs(rescaled_chebyshev(d, x)) < 1e-9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            chebyshev_root(1, 3)

    def test_rescaled_chebyshev_domain(self):
        with pytest.raises(ValueError):
            rescaled_chebyshev(2, 2.5)
        with pytest.raises(ValueError):
            rescaled_chebyshev(0, 1.0)


class TestDiagLadder:
    def test_empty_for_level_zero(self):
        assert build_diag_ladder(Level(0)).depth == 0

    def test_level_one(self):
        ladder = build_diag_ladder(Level(1))
        assert ladder.depth == 1
        assert ladder.level(0) == pytest.approx((SQRT2,), abs=1e-15)

    def test_level_two(self):
        ladder = build_diag_ladder(Level(2))
        assert ladder.level(0) == pytest.approx((SQRT2,), abs=1e-15)
        assert ladder.level(1) == pytest.approx(
            (2.0 * math.cos(math.pi / 8.0), 2.0 * math.cos(3.0 * math.pi / 8.0)),
            abs=1e-15,
        )

    def test_all_entries_positive(self):
        ladder = build_diag_ladder(Level(5))
        for L in range(ladder.depth):
            assert all(v > 0.0 for v in ladder.level(L))

    def test_square_minus_two_identity(self):
        # entry(L, i)**2 - 2 == entry(L-1, i) for the shared first half
        ladder = build_diag_ladder(Level(5))
        for L in range(1, ladder.depth):
            cur = ladder.level(L)
            prev = ladder.level(L - 1)
            for i in range(len(prev)):
                assert abs(cur[i] ** 2 - 2.0 - prev[i]) < 1e-12

    def test_missing_level(self):
        ladder = build_diag_ladder(Level(2))
        with pytest.raises(ValueError):
            ladder.level(2)
        with pytest.raises(ValueError):
            ladder.level(-1)


class TestGeneratorMatrix:
    def test_base_case(self):
        level = Level(0)
        mat = build_generator_matrix(level, build_diag_ladder(level))
        assert mat.shape == (1, 1)
        assert mat[0, 0] == 1.0

    def test_level_one(self):
        level = Level(1)
        mat = build_generator_matrix(level, build_diag_ladder(level))
        assert mat == pytest.approx(np.array([[1.0, SQRT2], [1.0, -SQRT2]]), abs=1e-15)

    def test_block_structure(self):
        lv1, lv2 = Level(1), Level(2)
        a1 = build_generator_matrix(lv1, build_diag_ladder(lv1))
        a2 = build_generator_matrix(lv2, build_diag_ladder(lv2))
        np.testing.assert_array_equal(a2[:2, :2], a1)
        np.testing.assert_array_equal(a2[2:, :2], a1)
        np.testing.assert_array_equal(a2[:2, 2:], -a2[2:, 2:])

    def test_ladder_too_shallow(self):
        with pytest.raises(ValueError):
            build_generator_matrix(Level(2), build_diag_ladder(Level(1)))


class TestVandermonde:
    def test_base_case(self):
        assert build_vandermonde(Level(0)) == pytest.approx(np.ones((1, 1)))

    def test_level_one(self):
        v = build_vandermonde(Level(1))
        assert v == pytest.approx(np.array([[1.0, SQRT2], [1.0, -SQRT2]]), abs=1e-15)

    def test_level_two_first_row_is_powers(self):
        v = build_vandermonde(Level(2))
        root = chebyshev_root(2, 1)
        assert v[0] == pytest.approx([root**j for j in range(4)], rel=1e-15)
        assert np.all(v[:, 0] == 1.0)


class TestDeterminant:
    def test_closed_form_values(self):
        assert det_magnitude(Level(0)) == pytest.approx(1.0, rel=1e-15)
        assert det_magnitude(Level(1)) == pytest.approx(4.0 / SQRT2, rel=1e-15)
        assert det_magnitude(Level(2)) == pytest.approx(64.0 / SQRT2, rel=1e-15)

    @pytest.mark.parametrize("n", range(6))
    def test_matches_numeric_determinant(self, n):
        level = Level(n)
        mat = build_generator_matrix(level, build_diag_ladder(level))
        numeric = abs(np.linalg.det(mat))
        closed = det_magnitude(level)
        assert abs(numeric - closed) / closed < 1e-9
