import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebfrolov import (
    Box,
    CubatureSpec,
    DiagLadder,
    Level,
    RandomShift,
    build_diag_ladder,
    det_magnitude,
)
from chebfrolov.lattice import chebyshev_root, root_permutation
from lattice_reference import build_generator_matrix, build_vandermonde, rescaled_chebyshev

SQRT2 = math.sqrt(2.0)

#: Any double, with extra weight on the positive, finite ones a ladder takes.
ENTRIES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | st.floats()


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
        assert ladder.levels[0] == pytest.approx((SQRT2,), abs=1e-15)

    def test_level_two(self):
        ladder = build_diag_ladder(Level(2))
        assert ladder.levels[0] == pytest.approx((SQRT2,), abs=1e-15)
        assert ladder.levels[1] == pytest.approx(
            (2.0 * math.cos(math.pi / 8.0), 2.0 * math.cos(3.0 * math.pi / 8.0)),
            abs=1e-15,
        )

    def test_all_entries_positive(self):
        ladder = build_diag_ladder(Level(5))
        for L in range(ladder.depth):
            assert all(v > 0.0 for v in ladder.levels[L])

    def test_square_minus_two_identity(self):
        # entry(L, i)**2 - 2 == entry(L-1, i) for the shared first half
        ladder = build_diag_ladder(Level(5))
        for L in range(1, ladder.depth):
            cur = ladder.levels[L]
            prev = ladder.levels[L - 1]
            for i in range(len(prev)):
                assert abs(cur[i] ** 2 - 2.0 - prev[i]) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), depth=st.integers(0, 5))
    def test_refuses_exactly_the_misshapen_and_non_positive(self, data, depth):
        # a level L must hold 2**L entries, each positive and finite
        levels = []
        for L in range(depth):
            size = data.draw(st.just(1 << L) | st.sampled_from([0, (1 << L) - 1, 3 << L]))
            levels.append(data.draw(st.lists(ENTRIES, min_size=size, max_size=size)))
        good = all(len(diag) == 1 << L for L, diag in enumerate(levels)) and all(
            0.0 < v < math.inf for diag in levels for v in diag
        )
        try:
            ladder = DiagLadder(levels)
        except ValueError:
            assert not good
        else:
            assert good and ladder.levels == tuple(map(tuple, levels))
            assert ladder._flat.tolist() == [v for diag in levels for v in diag]

    def test_missing_level(self):
        # a level-n ladder holds the diagonals of levels 0..n-1 and no more
        ladder = build_diag_ladder(Level(2))
        assert ladder.depth == len(ladder.levels) == 2
        with pytest.raises(IndexError):
            ladder.levels[2]


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


#: One instance of each value type: its class, keyword fields, a different
#: instance, and its repr.
VALUE_TYPES = [
    (Level, {"n": 3}, Level(2), "Level(n=3)"),
    (DiagLadder, {"levels": ((1.5,), (2.0, 0.5))}, DiagLadder(((1.5,),)),
     "DiagLadder(levels=((1.5,), (2.0, 0.5)))"),
    (Box, {"lower": (0.0, -1.0), "upper": (1.0, 2.5)}, Box((0.0, -1.0), (1.0, 2.0)),
     "Box(lower=(0.0, -1.0), upper=(1.0, 2.5))"),
    (CubatureSpec, {"level": Level(1), "scale": 8.0}, CubatureSpec(Level(1), 16.0),
     "CubatureSpec(level=Level(n=1), scale=8.0)"),
    (RandomShift, {"u": (1.0, 0.5), "v": (0.0, 1.0), "seed": 7},
     RandomShift((1.0, 0.5), (0.0, 1.0)), "RandomShift(u=(1.0, 0.5), v=(0.0, 1.0), seed=7)"),
]


@pytest.mark.parametrize(
    "cls, fields, other, text", [pytest.param(*case, id=case[0].__name__) for case in VALUE_TYPES]
)
class TestValueTypes:
    """The value types keep the contract of the frozen dataclasses they were."""

    def test_keyword_construction_equality_and_hash(self, cls, fields, other, text):
        value = cls(**fields)
        assert value == cls(*fields.values())
        assert hash(value) == hash(cls(*fields.values()))
        assert [getattr(value, name) for name in fields] == list(fields.values())
        assert value != other
        assert value != tuple(fields.values())
        assert value.__eq__(tuple(fields.values())) is NotImplemented
        assert len({value, cls(**fields), other}) == 2
        assert cls.__match_args__ == tuple(fields)

    def test_repr(self, cls, fields, other, text):
        assert repr(cls(**fields)) == text

    def test_immutable(self, cls, fields, other, text):
        value = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, getattr(other, name))
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == cls(**fields)

    def test_pickle_and_copy(self, cls, fields, other, text):
        value = cls(**fields)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(value, protocol))
            assert type(clone) is cls and clone == value and hash(clone) == hash(value)
        for clone in (copy.copy(value), copy.deepcopy(value)):
            assert type(clone) is cls and clone == value and repr(clone) == text


def test_ladder_hash_follows_its_levels():
    ladder = build_diag_ladder(Level(3))
    clone = pickle.loads(pickle.dumps(ladder))
    assert clone == ladder and hash(clone) == hash(ladder)
    # a list of lists is stored as tuples of floats and hashed as such
    assert DiagLadder([[1], [2.0, 3]]).levels == ((1.0,), (2.0, 3.0))
    assert hash(DiagLadder([[1], [2.0, 3]])) == hash(DiagLadder(((1.0,), (2.0, 3.0))))

