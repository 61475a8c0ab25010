import math
import statistics

import numpy as np
import pytest

from chebfrolov import cubature
from chebfrolov.enumeration import _STREAM_ROWS
from chebfrolov import (
    ConsistencyError,
    CubatureSpec,
    Level,
    RandomShift,
    build_diag_ladder,
    build_generator_matrix,
    count_points,
    det_magnitude,
    enumerate_batches,
    enumerate_stream,
    integrate,
    map_to_unit,
    randomized_box,
    sample_shift,
    standard_box,
)


def product_of_cosines(x):
    return math.prod(math.cos(math.pi * c) for c in x)


class TestCubatureSpec:
    @pytest.mark.parametrize("n,scale", [(0, 1.0), (1, 2.0), (2, 64.0), (3, 3.7), (5, 2.0)])
    def test_invariants(self, n, scale):
        spec = CubatureSpec(Level(n), scale)
        d = spec.level.d
        assert spec.shrink > 0
        assert abs(spec.weight * scale - 1.0) < 1e-12
        assert abs(spec.shrink**d * det_magnitude(spec.level) * scale - 1.0) < 1e-12

    def test_rejects_bad_scale(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                CubatureSpec(Level(1), bad)

    def test_rejects_scale_outside_double_range(self):
        # shrink 0 (|det| N overflows) and shrink overflow (|det| N subnormal)
        for n, bad in ((1, 2.0**1023), (5, 2.0**1023), (0, 1e-320)):
            with pytest.raises(ValueError, match="out of range"):
                CubatureSpec(Level(n), bad)
        assert 0.0 < standard_box(CubatureSpec(Level(0), 1e-300)).upper[0] < 1e-299


class TestStandardBox:
    def test_half_width_level_one(self):
        box = standard_box(CubatureSpec(Level(1), 2.0))
        expected = math.sqrt(2.0 * math.sqrt(2.0) * 2.0) / 2.0  # (|det| N)**(1/2) / 2
        assert box.upper[0] == pytest.approx(expected, rel=1e-12)
        assert box.upper[0] == pytest.approx(1.18920712, abs=1e-8)
        assert box.lower == (-box.upper[0], -box.upper[0])

    def test_one_dimensional_case(self):
        box = standard_box(CubatureSpec(Level(0), 1.0))
        assert box.upper[0] == pytest.approx(0.5, rel=1e-12)

    def test_expected_node_count(self):
        level = Level(2)
        box = standard_box(CubatureSpec(level, float(2**6)))
        assert count_points(level, box, build_diag_ladder(level)) == 71


class TestRandomizedBox:
    def test_identity_shift_is_standard_box(self):
        level = Level(2)
        spec = CubatureSpec(level, 16.0)
        ladder = build_diag_ladder(level)
        box, shift_vector = randomized_box(spec, RandomShift.identity(4), ladder)
        assert box == standard_box(spec)
        assert shift_vector == (0.0,) * 4

    def test_scalar_dilation(self):
        spec = CubatureSpec(Level(0), 1.0)
        ladder = build_diag_ladder(Level(0))
        box, _ = randomized_box(spec, RandomShift((1.5,), (0.0,)), ladder)
        base = standard_box(spec)
        assert box.upper[0] == pytest.approx(1.5 * base.upper[0], rel=1e-15)

    def test_shift_vector_matches_dense_product(self):
        level = Level(1)
        spec = CubatureSpec(level, 4.0)
        ladder = build_diag_ladder(level)
        shift = sample_shift(1234, 2)
        box, shift_vector = randomized_box(spec, shift, ladder)
        dense = build_generator_matrix(level, ladder) @ np.array(shift.v)
        assert shift_vector == pytest.approx(dense, abs=1e-12)
        base = 0.5 / spec.shrink
        for j in range(2):
            assert box.lower[j] == pytest.approx(-base * shift.u[j] - dense[j], abs=1e-12)
            assert box.upper[j] == pytest.approx(base * shift.u[j] - dense[j], abs=1e-12)
        assert all(lo < hi for lo, hi in zip(box.lower, box.upper))

    def test_dimension_mismatch(self):
        spec = CubatureSpec(Level(2), 4.0)
        with pytest.raises(ValueError):
            randomized_box(spec, RandomShift.identity(2), build_diag_ladder(Level(2)))


class TestRandomShift:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            RandomShift((0.4,), (0.0,))
        with pytest.raises(ValueError):
            RandomShift((1.0,), (1.1,))
        with pytest.raises(ValueError):
            RandomShift((1.0, 1.0), (0.0,))

    def test_identity(self):
        shift = RandomShift.identity(3)
        assert shift.u == (1.0, 1.0, 1.0)
        assert shift.v == (0.0, 0.0, 0.0)


class TestSampleShift:
    def test_deterministic(self):
        assert sample_shift(42, 4) == sample_shift(42, 4)
        assert sample_shift(42, 4) != sample_shift(43, 4)

    def test_ranges(self):
        for seed in range(50):
            shift = sample_shift(seed, 8)
            assert all(0.5 <= t <= 1.5 for t in shift.u)
            assert all(0.0 <= t <= 1.0 for t in shift.v)
            assert shift.seed == seed

    def test_uniform_means(self):
        # mean of 10**4 uniforms: 3 standard errors of sqrt(1/12)/100
        us, vs = [], []
        for seed in range(10_000):
            shift = sample_shift(seed, 2)
            us.extend(shift.u)
            vs.extend(shift.v)
        se = math.sqrt(1.0 / 12.0) / math.sqrt(len(us))
        assert abs(statistics.fmean(us) - 1.0) < 3 * se
        assert abs(statistics.fmean(vs) - 0.5) < 3 * se


class TestMapToUnit:
    def test_identity_is_pure_shrink(self):
        spec = CubatureSpec(Level(1), 4.0)
        x = (1.0, -1.0)
        assert map_to_unit(x, spec) == (spec.shrink * 1.0, spec.shrink * -1.0)

    def test_negated_shift_vector_maps_to_origin(self):
        level = Level(1)
        spec = CubatureSpec(level, 4.0)
        ladder = build_diag_ladder(level)
        shift = sample_shift(5, 2)
        _, shift_vector = randomized_box(spec, shift, ladder)
        node = map_to_unit(tuple(-v for v in shift_vector), spec, shift, shift_vector)
        assert node == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_round_trip(self):
        level = Level(1)
        spec = CubatureSpec(level, 4.0)
        ladder = build_diag_ladder(level)
        shift = sample_shift(99, 2)
        box, shift_vector = randomized_box(spec, shift, ladder)
        points = []
        enumerate_stream(level, box, ladder, points.append)
        assert points
        for p in points:
            node = map_to_unit(p.x, spec, shift, shift_vector)
            back = tuple(
                ui * c / spec.shrink - av for ui, c, av in zip(shift.u, node, shift_vector)
            )
            assert back == pytest.approx(p.x, abs=1e-9)

    def test_out_of_cube_raises(self):
        spec = CubatureSpec(Level(1), 4.0)
        far = 10.0 / spec.shrink
        with pytest.raises(ConsistencyError):
            map_to_unit((far, far), spec)

    def test_missing_shift_vector(self):
        spec = CubatureSpec(Level(1), 4.0)
        with pytest.raises(ValueError):
            map_to_unit((0.0, 0.0), spec, RandomShift.identity(2), None)


class TestIntegrate:
    def test_constant_one(self):
        level = Level(2)
        spec = CubatureSpec(level, float(2**10))
        result = integrate(spec, lambda x: 1.0, build_diag_ladder(level))
        assert result.node_count == 1025
        assert result.value == 1025.0 / 1024.0

    def test_zero_integrand(self):
        level = Level(1)
        spec = CubatureSpec(level, 64.0)
        result = integrate(spec, lambda x: 0.0, build_diag_ladder(level))
        assert result.value == 0.0

    def test_odd_integrand_cancels(self):
        level = Level(1)
        spec = CubatureSpec(level, float(2**6))
        result = integrate(spec, lambda x: x[0], build_diag_ladder(level))
        assert abs(result.value) < 1e-12

    def test_nodes_inside_unit_cube(self):
        # map_to_unit guards every node; a completed run certifies containment
        level = Level(3)
        spec = CubatureSpec(level, 128.0)
        ladder = build_diag_ladder(level)
        seen = []

        def probe(x):
            seen.append(x)
            return 0.0

        integrate(spec, probe, ladder, sample_shift(3, 8))
        assert seen
        for node in seen:
            assert all(-0.5 - 1e-9 <= c <= 0.5 + 1e-9 for c in node)

    def test_identity_shift_bit_for_bit(self):
        level = Level(1)
        spec = CubatureSpec(level, 64.0)
        ladder = build_diag_ladder(level)
        plain = integrate(spec, product_of_cosines, ladder)
        via_shift = integrate(spec, product_of_cosines, ladder, RandomShift.identity(2))
        assert plain == via_shift

    def test_node_count_matches_count_points(self):
        level = Level(2)
        spec = CubatureSpec(level, 200.0)
        ladder = build_diag_ladder(level)
        result = integrate(spec, lambda x: 1.0, ladder)
        assert result.node_count == count_points(level, standard_box(spec), ladder)

    def test_compensated_agrees(self):
        level = Level(2)
        spec = CubatureSpec(level, float(2**10))
        ladder = build_diag_ladder(level)
        plain = integrate(spec, product_of_cosines, ladder)
        kahan = integrate(spec, product_of_cosines, ladder, compensated=True)
        assert kahan.node_count == plain.node_count
        assert kahan.value == pytest.approx(plain.value, rel=1e-12)

    def test_integrand_error_propagates(self):
        level = Level(1)
        spec = CubatureSpec(level, 16.0)

        def bad(x):
            raise ZeroDivisionError("integrand blew up")

        with pytest.raises(ZeroDivisionError):
            integrate(spec, bad, build_diag_ladder(level))

    def test_randomized_mean_near_truth(self):
        # quick unbiasedness smoke; the acceptance suite runs the full version
        level = Level(1)
        spec = CubatureSpec(level, float(2**6))
        ladder = build_diag_ladder(level)
        values = [
            integrate(spec, product_of_cosines, ladder, sample_shift(seed, 2)).value
            for seed in range(200)
        ]
        truth = (2.0 / math.pi) ** 2
        se = statistics.stdev(values) / math.sqrt(len(values))
        assert abs(statistics.fmean(values) - truth) < 4 * se


def per_node_reference(spec, f, ladder, shift=None, compensated=False):
    """integrate written node by node: stream, map_to_unit, sequential sum."""
    if shift is None:
        box, shift_vector, weight = standard_box(spec), None, spec.weight
    else:
        box, shift_vector = randomized_box(spec, shift, ladder)
        weight = spec.weight / math.prod(shift.u)
    total = carry = 0.0
    points = []
    enumerate_stream(spec.level, box, ladder, points.append)
    for p in points:
        fx = f(map_to_unit(p.x, spec, shift, shift_vector))
        if compensated:
            y = fx - carry
            t = total + y
            carry = (t - total) - y
            total = t
        else:
            total += fx
    return weight * total, len(points)


class TestIntegrateMatchesPerNodeReference:
    CASES = [(0, 2**11), (1, 2**12), (2, 2**10), (3, 2**9)]

    @pytest.mark.parametrize("n,scale", CASES)
    @pytest.mark.parametrize("compensated", [False, True])
    def test_deterministic(self, n, scale, compensated):
        level = Level(n)
        spec = CubatureSpec(level, float(scale))
        ladder = build_diag_ladder(level)
        result = integrate(spec, product_of_cosines, ladder, compensated=compensated)
        value, count = per_node_reference(spec, product_of_cosines, ladder, None, compensated)
        assert result.node_count == count > 0
        assert result.value == value  # bit-for-bit, not approximately

    @pytest.mark.parametrize("n,scale", CASES)
    @pytest.mark.parametrize("compensated", [False, True])
    def test_randomized(self, n, scale, compensated):
        level = Level(n)
        spec = CubatureSpec(level, float(scale))
        ladder = build_diag_ladder(level)
        for seed in (3, 11):
            shift = sample_shift(seed, level.d)
            result = integrate(spec, product_of_cosines, ladder, shift, compensated=compensated)
            value, count = per_node_reference(spec, product_of_cosines, ladder, shift, compensated)
            assert result.node_count == count > 0
            assert result.value == value

    def test_integrand_sees_the_mapped_nodes_in_order(self):
        level = Level(2)
        spec = CubatureSpec(level, 300.0)
        ladder = build_diag_ladder(level)
        shift = sample_shift(8, 4)
        box, shift_vector = randomized_box(spec, shift, ladder)
        points = []
        enumerate_stream(level, box, ladder, points.append)
        seen = []
        integrate(spec, lambda x: seen.append(x) or 0.0, ladder, shift)
        assert seen == [map_to_unit(p.x, spec, shift, shift_vector) for p in points]
        assert all(type(x) is tuple and type(x[0]) is float for x in seen)

    @pytest.mark.parametrize("randomized", [False, True])
    def test_batch_guard_raises(self, monkeypatch, randomized):
        level = Level(2)
        spec = CubatureSpec(level, 256.0)
        ladder = build_diag_ladder(level)
        shift = sample_shift(4, 4) if randomized else None
        calls = []
        monkeypatch.setattr(cubature, "NODE_TOLERANCE", -0.45)
        with pytest.raises(ConsistencyError, match="outside"):
            integrate(spec, lambda x: calls.append(x) or 1.0, ladder, shift)
        assert calls == []  # the first batch already fails its check


def numpy_nodes(spec, ladder, shift=None):
    """The node map in numpy, ``s * X`` or ``s * (X + Gv) / u``, over the
    ``enumerate_batches`` arrays of the rule's box, as one (m, d) array."""
    if shift is None:
        box = standard_box(spec)
    else:
        box, shift_vector = randomized_box(spec, shift, ladder)
    s = spec.shrink
    batches = [
        s * X if shift is None else s * (X + np.array(shift_vector)) / np.array(shift.u)
        for _, X in enumerate_batches(spec.level, box, ladder, 97)
    ]
    return np.concatenate(batches)


class TestNodesMatchNumpy:
    """The integrand's tuples against a numpy map written here, not the package's."""

    SCALES = {0: 2**10, 1: 2**10, 2: 2**9, 3: 2**9, 4: 2**6, 5: 2**6}

    @pytest.mark.parametrize("n", sorted(SCALES))
    @pytest.mark.parametrize("randomized", [False, True])
    def test_integrand_sees_numpy_nodes_byte_for_byte(self, n, randomized):
        level = Level(n)
        spec = CubatureSpec(level, float(self.SCALES[n]))
        ladder = build_diag_ladder(level)
        for seed in (0, 5, 17) if randomized else (None,):
            shift = None if seed is None else sample_shift(seed, level.d)
            seen = []
            result = integrate(spec, lambda x: seen.append(x) or 0.0, ladder, shift)
            reference = numpy_nodes(spec, ladder, shift)
            assert result.node_count == len(seen) == len(reference) > 0
            assert np.array(seen, dtype=np.float64).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("seed,tolerance", [(None, -1e-3), (6, -1e-4)])
    def test_error_names_the_first_bad_mapped_coordinate(self, monkeypatch, seed, tolerance):
        level = Level(1)
        spec = CubatureSpec(level, 2.0**12)
        ladder = build_diag_ladder(level)
        shift = None if seed is None else sample_shift(seed, 2)
        reference = numpy_nodes(spec, ladder, shift).ravel()
        monkeypatch.setattr(cubature, "NODE_TOLERANCE", tolerance)
        first = np.flatnonzero(~(np.abs(reference) <= 0.5 + tolerance))[0]
        c = float(reference[first])
        calls = []
        with pytest.raises(ConsistencyError) as exc:
            integrate(spec, lambda x: calls.append(x) or 1.0, ladder, shift)
        assert str(exc.value) == f"node coordinate {c!r} outside [-1/2, 1/2] beyond tolerance"
        # every fill before the one holding it reached the integrand, in order
        rows = _STREAM_ROWS
        assert len(calls) == first // 2 // rows * rows
        assert calls == [tuple(x) for x in reference[: 2 * len(calls)].reshape(-1, 2).tolist()]

    def test_map_to_unit_error_names_the_mapped_coordinate(self):
        spec = CubatureSpec(Level(1), 4.0)
        far = 10.0 / spec.shrink
        with pytest.raises(ConsistencyError) as exc:
            map_to_unit((0.0, far), spec)
        assert f"{spec.shrink * far!r} outside" in str(exc.value)

    def test_map_to_unit_refuses_other_dimensions(self):
        spec = CubatureSpec(Level(1), 4.0)
        shift = RandomShift.identity(2)
        with pytest.raises(ValueError, match="dimension"):
            map_to_unit((0.0,), spec)
        with pytest.raises(ValueError, match="dimension"):
            map_to_unit((0.0, 0.0), spec, shift, (0.0,))
