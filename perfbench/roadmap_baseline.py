"""Re-measure the ROADMAP baseline grid and print it beside the ROADMAP figures.

Run from the root of a checkout:

    python3 perfbench/roadmap_baseline.py

Prints one JSON object: for each baseline row the ROADMAP figure, the
figure measured now (median of three wall-clock runs) and their ratio,
plus the host speed in the reference units of ``clock``.  Informational:
the gated numbers come from ``run.py``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import chebfrolov as cf  # noqa: E402
from clock import NOMINAL_S, calibration_s  # noqa: E402
from run import environment  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import cospi  # noqa: E402

#: The figures ROADMAP.md records under "Baseline".
ROADMAP = {
    "count_s": {(2, 2**20): 0.001, (8, 2**14): 0.04, (16, 2**14): 1.0, (32, 4): 1.2},
    "stream_pts_per_s": {(2, 2**18): 0.72e6, (8, 2**14): 0.14e6, (16, 2**14): 18e3, (32, 4): 2.8e3},
    "integrate_d2_N2^18_s": {"total": 1.30, "map_to_unit": 0.69, "enumeration": 0.22, "integrand": 0.26},
}
REPEATS = 3


def setup(d: int, n: float):
    level = cf.Level.from_dimension(d)
    ladder = cf.build_diag_ladder(level)
    return level, cf.standard_box(cf.CubatureSpec(level, n)), ladder


def median_s(fn) -> float:
    samples = []
    for _ in range(REPEATS):
        start = perf_counter()
        fn()
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def row(roadmap: float, measured: float) -> dict:
    return {"roadmap": roadmap, "measured": measured, "ratio": measured / roadmap}


def integrate_split() -> dict:
    """Mean span split of an integrate at d=2, N=2^18, traced like run.py's traced run."""
    level, _, ladder = setup(2, 1.0)
    spec = cf.CubatureSpec(level, float(2**18))
    holder = {"f": cospi}
    tracer = Tracer()
    tracer.install(((holder, "f", "cubature.integrand"),))
    try:
        for _ in range(REPEATS):
            cf.integrate(spec, holder["f"], ladder)
    finally:
        tracer.uninstall()
    return {
        "total": tracer.total("cubature.integrate") / REPEATS,
        "map_to_unit": tracer.total("cubature.map_to_unit") / REPEATS,
        "enumeration": tracer.total("enumeration.enumerate_stream", 2) / REPEATS,
        "integrand": tracer.total("cubature.integrand") / REPEATS,
    }


def main() -> None:
    speed_before = calibration_s()
    out: dict = {"env": environment(seed=0)}
    out["count_s"] = {}
    for (d, n), figure in ROADMAP["count_s"].items():
        level, box, ladder = setup(d, n)
        out["count_s"][f"d={d} N={n}"] = row(figure, median_s(lambda: cf.count_points(level, box, ladder)))
    out["stream_pts_per_s"] = {}
    for (d, n), figure in ROADMAP["stream_pts_per_s"].items():
        level, box, ladder = setup(d, n)
        points = cf.count_points(level, box, ladder)
        seconds = median_s(lambda: cf.enumerate_stream(level, box, ladder, lambda p: None))
        out["stream_pts_per_s"][f"d={d} N={n}"] = row(figure, points / seconds)
    split = integrate_split()
    out["integrate_d2_N2^18_s"] = {
        part: row(figure, split[part]) for part, figure in ROADMAP["integrate_d2_N2^18_s"].items()
    }
    out["host_speed"] = NOMINAL_S / ((speed_before + calibration_s()) / 2.0)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
