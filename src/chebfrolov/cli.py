"""Command-line front end: count, list, integrate, and verify lattice nodes.

Commands
--------
count             number of lattice points in a box (JSON summary)
points            stream the points themselves (CSV or JSONL, one per line)
integrate         deterministic cubature of a built-in integrand
integrate-random  randomized cubature with a seeded shift
verify            unimodularity, two-scale and golden-count checks
table             dump the embedded golden count rows

Output is deterministic for a fixed configuration (timing fields aside).
Exit codes: 0 success, 1 check failure, 2 usage error.  ``--dim`` and the
``--max-dim`` of verify and table take a power of two up to 64, the fixed
limit of :class:`~chebfrolov.lattice.Level`; verify and table refuse limits
that select no golden row.

No command loads numpy.  ``points`` formats each fill of the walker at
once, from plain Python lists, with one CSV row template repeated for its
rows; ``integrate`` maps each fill to cubature nodes in the walker library;
``verify`` filters fills and solves its small linear systems in Python.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
import time
from typing import Callable, Iterator, Sequence, TextIO

from .cubature import (
    CubatureSpec,
    integrate,
    sample_shift,
    standard_box,
)
from .enumeration import _STREAM_ROWS, Box, LatticePoint, _fill, _prepare, count_points
from .lattice import Level, build_diag_ladder
from .verify import double_box_check, load_golden_table, reproduce_table, unimodular_check

#: Built-in integrands selectable from the command line.  "cospi" has exact
#: integral (2/pi)**d over the centered unit cube; "coord1" integrates to 0.
INTEGRANDS: dict[str, Callable[[tuple[float, ...]], float]] = {
    "one": lambda x: 1.0,
    "cospi": lambda x: math.prod(math.cos(math.pi * c) for c in x),
    "coord1": lambda x: x[0],
}


class UsageError(Exception):
    """Invalid configuration detected after argparse."""


def format_point(point: LatticePoint, fmt: str, precision: int) -> str:
    """One output line per point: CSV of x, or a JSONL object with k and x."""
    if fmt == "csv":
        return _csv_row(len(point.x), precision).format(*point.x)[:-1]
    if fmt == "jsonl":
        return _json_line(list(point.k), list(point.x))
    raise UsageError(f"unknown point format {fmt!r}")


def _csv_row(d: int, precision: int) -> str:
    """The ``str.format`` template of one CSV line of d coordinates, newline included."""
    return ",".join([f"{{:.{precision}g}}"] * d) + "\n"


def _json_line(k: list[int], x: list[float]) -> str:
    return json.dumps({"k": k, "x": x}, separators=(",", ":"))


def _resolve_scale(args: argparse.Namespace) -> float | None:
    if args.scale is not None and args.log2_scale is not None:
        raise UsageError("give either --scale or --log2-scale, not both")
    if args.log2_scale is not None:
        try:
            return math.ldexp(1.0, args.log2_scale)
        except OverflowError:
            raise UsageError(f"--log2-scale {args.log2_scale} overflows a double")
    return args.scale


def _resolve_box(args: argparse.Namespace, level: Level, scale: float | None) -> Box:
    corners = getattr(args, "box", None)
    if (scale is None) == (corners is None):
        raise UsageError("give exactly one of a scale (--scale/--log2-scale) or --box")
    if scale is not None:
        return standard_box(CubatureSpec(level, scale))
    d = level.d
    if len(corners) != 2 * d:
        raise UsageError(
            f"--box needs {2 * d} values for dimension {d} "
            f"(lower corner then upper corner), got {len(corners)}"
        )
    return Box(tuple(corners[:d]), tuple(corners[d:]))


def _scale_number(scale: float) -> float | int:
    return int(scale) if scale == int(scale) else scale


@contextlib.contextmanager
def _output(args: argparse.Namespace) -> Iterator[TextIO]:
    """The ``--out`` file, or stdout.  Commands open it only once their
    arguments are resolved and the walker has taken the box (count and
    integrate once their result is there), so a usage error leaves an
    existing file as it was."""
    if not args.out:
        yield sys.stdout
        return
    try:
        fh = open(args.out, "w")
    except OSError as exc:
        raise UsageError(f"cannot write --out {args.out!r}: {exc.strerror}")
    with fh:
        yield fh


def _cmd_count(args: argparse.Namespace) -> int:
    level = Level.from_dimension(args.dim)
    scale = _resolve_scale(args)
    box = _resolve_box(args, level, scale)
    ladder = build_diag_ladder(level)
    start = time.monotonic()
    n_points = count_points(level, box, ladder)
    elapsed = time.monotonic() - start
    summary = {
        "d": level.d,
        "N": _scale_number(scale) if scale is not None else None,
        "count": n_points,
        "seconds": elapsed,
    }
    with _output(args) as out:
        print(json.dumps(summary), file=out)
    return 0


def _cmd_points(args: argparse.Namespace) -> int:
    level = Level.from_dimension(args.dim)
    box = _resolve_box(args, level, _resolve_scale(args))
    d = level.d
    fills = _fill(_prepare(level, box, build_diag_ladder(level)), d, _STREAM_ROWS)
    first = next(fills, None)  # the walker refuses a box at its first call
    row = _csv_row(d, args.precision)
    with _output(args) as out:
        if args.header and args.format == "csv":
            print(",".join(f"x{j + 1}" for j in range(d)), file=out)
        for K, X in itertools.chain([first] if first else [], fills):
            if args.format == "csv":
                out.write((row * (len(X) // d)).format(*X.tolist()))
            else:
                ks, xs = K.tolist(), X.tolist()
                for i in range(0, len(xs), d):
                    print(_json_line(ks[i : i + d], xs[i : i + d]), file=out)
    return 0


def _cmd_integrate(args: argparse.Namespace) -> int:
    level = Level.from_dimension(args.dim)
    scale = _resolve_scale(args)
    if scale is None:
        raise UsageError("integrate needs --scale or --log2-scale")
    seed = getattr(args, "seed", None)  # integrate-random only
    shift = None if seed is None else sample_shift(seed, level.d)
    spec = CubatureSpec(level, scale)
    ladder = build_diag_ladder(level)
    f = INTEGRANDS[args.integrand]
    start = time.monotonic()
    result = integrate(spec, f, ladder, shift, compensated=args.compensated)
    elapsed = time.monotonic() - start
    summary = {
        "d": level.d,
        "N": _scale_number(scale),
        "integrand": args.integrand,
        "value": result.value,
        "nodeCount": result.node_count,
        "seconds": elapsed,
    }
    if shift is not None:
        summary["seed"] = seed
    with _output(args) as out:
        print(json.dumps(summary), file=out)
    return 0


def _golden_limits(args: argparse.Namespace) -> tuple[Level, int]:
    """``--max-dim`` as a level and ``--max-log2-scale``, refused unless they
    select a golden row."""
    max_level = Level.from_dimension(args.max_dim)
    max_log2 = args.max_log2_scale
    table = load_golden_table()
    min_d, min_log2 = min(r.d for r in table), min(r.log2n for r in table)
    if max_level.d < min_d or max_log2 < min_log2:
        raise UsageError(
            f"--max-dim {max_level.d} --max-log2-scale {max_log2} selects no golden row:"
            f" the table holds d >= {min_d} and log2N >= {min_log2}"
        )
    return max_level, max_log2


def _cmd_verify(args: argparse.Namespace) -> int:
    max_level, max_log2 = _golden_limits(args)
    table = load_golden_table()
    failures = 0
    with _output(args) as out:
        for n in range(min(max_level.n, 3) + 1):
            check = unimodular_check(Level(n))
            status = "PASS" if check.passed else "FAIL"
            failures += not check.passed
            print(
                f"unimodular n={n}: {status} "
                f"(int_dev={check.max_integer_deviation:.2e}, det_dev={check.det_deviation:.2e})",
                file=out,
            )

        for record, observed, match in reproduce_table(max_level, max_log2):
            status = "PASS" if match else "FAIL"
            failures += not match
            print(
                f"golden d={record.d} log2N={record.log2n}: {status} "
                f"(expected={record.count}, observed={observed})",
                file=out,
            )

        for record in table:
            if record.d > min(max_level.d, 8) or record.log2n > min(max_log2, 10):
                continue
            level = Level.from_dimension(record.d)
            check = double_box_check(level, float(2**record.log2n))
            status = "PASS" if check.agree else "FAIL"
            failures += not check.agree
            print(
                f"double-box d={record.d} log2N={record.log2n}: {status} "
                f"(direct={check.direct}, filtered={check.filtered})",
                file=out,
            )

        print(f"RESULT: {'PASS' if failures == 0 else f'FAIL ({failures} checks)'}", file=out)
        return 0 if failures == 0 else 1


def _cmd_table(args: argparse.Namespace) -> int:
    max_level, max_log2 = _golden_limits(args)
    with _output(args) as out:
        print("d,log2N,count", file=out)
        for record in load_golden_table():
            if record.d <= max_level.d and record.log2n <= max_log2:
                print(f"{record.d},{record.log2n},{record.count}", file=out)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _add_dim_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, required=True, help="dimension d (a power of two <= 64)")


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, help="scale N > 0")
    parser.add_argument("--log2-scale", type=int, help="integer m for N = 2**m")


def _add_common_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write output to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebfrolov",
        description="Lattice point counting/enumeration and lattice-rule cubature.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count lattice points in a box")
    _add_dim_arg(p_count)
    _add_scale_args(p_count)
    p_count.add_argument("--box", type=float, nargs="+", help="2d floats: lower then upper corner")
    _add_common_output(p_count)
    p_count.set_defaults(func=_cmd_count)

    p_points = sub.add_parser("points", help="stream lattice points, one per line")
    _add_dim_arg(p_points)
    _add_scale_args(p_points)
    p_points.add_argument("--box", type=float, nargs="+", help="2d floats: lower then upper corner")
    p_points.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_points.add_argument("--precision", type=_positive_int, default=17,
                          help="significant digits for CSV output (17 round-trips doubles)")
    p_points.add_argument("--header", action="store_true", help="emit a x1..xd CSV header")
    _add_common_output(p_points)
    p_points.set_defaults(func=_cmd_points)

    for name in ("integrate", "integrate-random"):
        p_int = sub.add_parser(name, help=f"{name} a built-in integrand")
        _add_dim_arg(p_int)
        _add_scale_args(p_int)
        p_int.add_argument("--integrand", choices=sorted(INTEGRANDS), default="cospi")
        p_int.add_argument("--compensated", action="store_true", help="Kahan accumulation")
        if name == "integrate-random":
            p_int.add_argument("--seed", type=int, default=0)
        _add_common_output(p_int)
        p_int.set_defaults(func=_cmd_integrate)

    p_verify = sub.add_parser("verify", help="run consistency and golden-count checks")
    p_verify.add_argument("--max-dim", type=int, default=8)
    p_verify.add_argument("--max-log2-scale", type=int, default=10)
    _add_common_output(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("table", help="print the embedded golden count table")
    p_table.add_argument("--max-dim", type=int, default=32)
    p_table.add_argument("--max-log2-scale", type=int, default=30)
    _add_common_output(p_table)
    p_table.set_defaults(func=_cmd_table)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
