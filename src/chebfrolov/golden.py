"""The golden table: known-good node counts of the standard cubature boxes.

One row per (d, log2N) of ``data/golden_counts.csv`` (columns d, log2N,
count).  :func:`chebfrolov.verify.reproduce_table` re-derives the rows and
the CLI's ``table`` prints them.  The table has a module of its own so that
reading it loads none of the checks: the package imports this module, and
:mod:`chebfrolov.verify` only on first use of one of its names.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple


class CountRecord(NamedTuple):
    d: int
    log2n: int
    count: int


@lru_cache(maxsize=1)
def load_golden_table() -> tuple[CountRecord, ...]:
    """Known-good node counts for the standard boxes, one row per (d, log2N)."""
    import csv
    import io
    from importlib import resources

    text = resources.files("chebfrolov").joinpath("data/golden_counts.csv").read_text()
    return tuple(
        CountRecord(int(row["d"]), int(row["log2N"]), int(row["count"]))
        for row in csv.DictReader(io.StringIO(text))
    )
