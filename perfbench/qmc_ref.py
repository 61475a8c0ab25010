"""Accuracy references: scrambled Sobol and Halton rules on the cospi integrand.

Prints a JSON list with, per case ``d:m`` (dimension d, N = 2**m points),
the absolute error of each rule against the exact (2/pi)**d.  Informational
only: nothing in chebfrolov moves these numbers.

    python3 perfbench/qmc_ref.py --seed 1 --case 2:18 --case 8:14
"""

from __future__ import annotations

import argparse
import json
import math

import numpy as np
from scipy.stats import qmc


def cospi_error(points: np.ndarray, d: int) -> float:
    estimate = float(np.prod(np.cos(np.pi * (points - 0.5)), axis=1).mean())
    return abs(estimate - (2.0 / math.pi) ** d)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--case", action="append", required=True, help="d:m for N = 2**m")
    args = parser.parse_args()
    rows = []
    for case in args.case:
        d, m = map(int, case.split(":"))
        sobol = qmc.Sobol(d, scramble=True, seed=args.seed).random_base2(m)
        halton = qmc.Halton(d, scramble=True, seed=args.seed).random(2**m)
        rows.append({
            "d": d,
            "N": 2**m,
            "sobol_abs_err": cospi_error(sobol, d),
            "halton_abs_err": cospi_error(halton, d),
        })
    print(json.dumps(rows))


if __name__ == "__main__":
    main()
