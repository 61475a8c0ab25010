"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion as it completes.
"""

import math
import random
import statistics
import time

import numpy as np

from chebfrolov import (
    Box,
    CubatureSpec,
    Level,
    RandomShift,
    build_diag_ladder,
    build_generator_matrix,
    chebyshev_root,
    count_points,
    det_magnitude,
    double_box_check,
    enumerate_stream,
    integrate,
    load_golden_table,
    oracle_enumerate,
    rescaled_chebyshev,
    root_permutation,
    sample_shift,
    standard_box,
    unimodular_check,
)
from chebfrolov.verify import recursive_enumerate

#: (dimension, max log2N) ranges exercised at desk scale.
MEDIUM_RANGES = {2: 20, 4: 20, 8: 14, 16: 20, 32: 12}

_golden = {(rec.d, rec.log2n): rec.count for rec in load_golden_table()}
_count_cache: dict[tuple[int, int], int] = {}
_ladders = {}


def _ladder(d):
    if d not in _ladders:
        level = Level.from_dimension(d)
        _ladders[d] = (level, build_diag_ladder(level))
    return _ladders[d]


def observed_count(d, m):
    if (d, m) not in _count_cache:
        level, ladder = _ladder(d)
        box = standard_box(CubatureSpec(level, float(2**m)))
        _count_cache[(d, m)] = count_points(level, box, ladder)
    return _count_cache[(d, m)]


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def random_box(rng, d):
    corners = [sorted((rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))) for _ in range(d)]
    return Box(tuple(c[0] for c in corners), tuple(c[1] for c in corners))


def test_golden_counts_small_scales():
    mismatches = [
        (d, m, _golden[(d, m)], observed_count(d, m))
        for d in (2, 4, 8)
        for m in range(1, 15)
        if observed_count(d, m) != _golden[(d, m)]
    ]
    report(f"golden counts, small scales (d in {{2,4,8}}, m <= 14): {mismatches or 'exact'}",
           not mismatches)


def test_golden_counts_medium_scales():
    mismatches = []
    for d, max_m in MEDIUM_RANGES.items():
        for m in range(1, max_m + 1):
            if observed_count(d, m) != _golden[(d, m)]:
                mismatches.append((d, m, _golden[(d, m)], observed_count(d, m)))
    spot = {
        (4, 20): 1048609,
        (8, 14): 16413,
        (16, 10): 2043,
        (32, 1): 3377,
        (32, 2): 4105,
    }
    spot_ok = all(observed_count(d, m) == c for (d, m), c in spot.items())
    report(f"golden counts, medium scales: {mismatches or 'exact'}",
           not mismatches and spot_ok)


def test_density_ratio():
    count = observed_count(4, 20)
    ratio = count / 2.0**20
    ok = count == 1048609 and ratio == 1048609 / 1048576 and abs(ratio - 1.0) < 5e-5
    report(f"density ratio d=4, N=2^20: count/N = {ratio!r}", ok)


def test_oracle_equivalence():
    rng = random.Random(424242)
    boxes = 0
    agree = True
    for n in range(4):
        level = Level(n)
        ladder = build_diag_ladder(level)
        for _ in range(100):
            box = random_box(rng, level.d)
            boxes += 1
            want = {p.k for p in oracle_enumerate(level, box)}
            rec = {p.k for p in recursive_enumerate(level, box)}
            streamed = set()
            enumerate_stream(level, box, ladder, lambda p: streamed.add(p.k))
            if not (want == rec == streamed):
                agree = False
    report(f"oracle equivalence: 3 enumerators identical on {boxes} random boxes, n <= 3",
           agree)


def test_double_box_consistency():
    failures = []
    for d in (2, 4, 8):
        level, _ = _ladder(d)
        for m in range(1, 11):
            check = double_box_check(level, float(2**m))
            if not (check.agree and check.direct == _golden[(d, m)]):
                failures.append((d, m, check))
    report(f"2N-box consistency for d <= 8, m <= 10: {failures or 'all filtered counts equal'}",
           not failures)


def test_unimodularity():
    worst_int = 0.0
    worst_det = 0.0
    for n in range(4):
        check = unimodular_check(Level(n))
        worst_int = max(worst_int, check.max_integer_deviation)
        worst_det = max(worst_det, check.det_deviation)
    report(
        f"unimodularity n <= 3: int_dev={worst_int:.2e}, det_dev={worst_det:.2e} (< 1e-6)",
        worst_int < 1e-6 and worst_det < 1e-6,
    )


def test_determinant_identity():
    worst = 0.0
    for n in range(6):
        level = Level(n)
        closed = det_magnitude(level)
        numeric = abs(np.linalg.det(build_generator_matrix(level, build_diag_ladder(level))))
        worst = max(worst, abs(numeric - closed) / closed)
    report(f"determinant identity n <= 5: worst rel err {worst:.2e} (< 1e-9)", worst < 1e-9)


def test_root_and_permutation_suite():
    bijective = all(
        {root_permutation(n, k) for k in range(1, 2**n + 1)} == set(range(1, 2**n + 1))
        for n in range(7)
    )
    worst_poly = max(
        abs(rescaled_chebyshev(2**n, chebyshev_root(n, k)))
        for n in range(6)
        for k in range(1, 2**n + 1)
    )
    ladder = build_diag_ladder(Level(5))
    worst_ladder = max(
        abs(ladder.level(L)[i] ** 2 - 2.0 - ladder.level(L - 1)[i])
        for L in range(1, ladder.depth)
        for i in range(1 << (L - 1))
    )
    ok = bijective and worst_poly < 1e-9 and worst_ladder < 1e-12
    report(
        "root/permutation suite: bijective n <= 6, "
        f"|poly(root)| {worst_poly:.2e} (< 1e-9), ladder identity {worst_ladder:.2e} (< 1e-12)",
        ok,
    )


def test_randomized_cubature():
    start = time.monotonic()
    level = Level(1)
    spec = CubatureSpec(level, float(2**6))
    ladder = build_diag_ladder(level)

    def f(x):
        return math.cos(math.pi * x[0]) * math.cos(math.pi * x[1])

    deterministic = integrate(spec, f, ladder)
    identity = integrate(spec, f, ladder, RandomShift.identity(2))
    bit_equal = deterministic == identity

    values = [integrate(spec, f, ladder, sample_shift(seed, 2)).value for seed in range(1000)]
    truth = (2.0 / math.pi) ** 2
    mean = statistics.fmean(values)
    se = statistics.stdev(values) / math.sqrt(len(values))
    unbiased = abs(mean - truth) < 4.0 * se
    elapsed = time.monotonic() - start
    report(
        f"randomized cubature: identity bit-equal={bit_equal}, "
        f"|mean-truth|/SE = {abs(mean - truth) / se:.2f} (< 4) over 1000 seeds, "
        f"{elapsed:.1f}s (< 30)",
        bit_equal and unbiased and elapsed < 30.0,
    )


def test_large_count_smoke():
    level, ladder = _ladder(16)
    box = standard_box(CubatureSpec(level, float(2**20)))
    start = time.monotonic()
    count = count_points(level, box, ladder)
    elapsed = time.monotonic() - start
    _count_cache[(16, 20)] = count
    report(
        f"timing smoke: d=16, N=2^20 counted {count} (= 1054837) in {elapsed:.1f}s (< 60)",
        count == 1054837 and elapsed < 60.0,
    )
