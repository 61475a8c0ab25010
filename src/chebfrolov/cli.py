"""Command-line front end: count, list, integrate, and verify lattice nodes.

Commands
--------
count             number of lattice points in a box (JSON summary)
points            stream the points themselves (CSV or JSONL, one per line)
integrate         deterministic cubature of a built-in integrand
integrate-random  randomized cubature with a seeded shift
verify            unimodularity, golden-count and two-scale checks
table             dump the embedded golden count rows

Output is deterministic for a fixed configuration (timing fields aside).
Exit codes: 0 success, 1 check failure, 2 usage error.  The parser refuses
what it can state itself, with its own message: a missing ``--dim``, or not
exactly one of ``--scale``, ``--log2-scale`` and (count and points)
``--box``.  The rest needs the values: ``--box`` must hold 2d numbers,
``--log2-scale`` must fit a double, ``--out`` must be writable, and
``--dim`` and the ``--max-dim`` of verify and table take a power of two up
to 64, the fixed limit of :class:`~chebfrolov.lattice.Level`; verify and
table refuse limits that select no golden row.

No command loads numpy.  ``points`` writes the CSV text of each fill of
the walker, made in the walker library (``format_rows`` of ``_walk.c``):
the bytes of Python's ``format(x, ".{p}g")``, whose digits are made from
exact integers up to 19 digits.  printf's ``%.*g``, in the C locale so that
``LC_NUMERIC`` changes no byte, writes only the rest: zeros, subnormals,
precisions past 19, and values whose products do not fit in 128 bits
(``|x|`` outside [2^-75, 2^127)).  JSONL lines are made in Python.
``integrate`` maps each fill to cubature nodes in the walker library;
``verify`` filters fills and solves its small linear systems in Python.
Only ``verify`` and ``table`` import :mod:`chebfrolov.verify`, the home of
the golden table and of :func:`~chebfrolov.verify.golden_rows`.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .enumeration import Box, _fill, _library, count_points
from .lattice import Level, build_diag_ladder

#: Built-in integrands selectable from the command line.  "cospi" has exact
#: integral (2/pi)**d over the centered unit cube; "coord1" integrates to 0.
INTEGRANDS: dict[str, Callable[[tuple[float, ...]], float]] = {
    "one": lambda x: 1.0,
    "cospi": lambda x: math.prod(math.cos(math.pi * c) for c in x),
    "coord1": lambda x: x[0],
}


class UsageError(Exception):
    """Invalid configuration detected after argparse."""


def _json_line(k: list[int], x: list[float]) -> str:
    return json.dumps({"k": k, "x": x}, separators=(",", ":"))


def _resolve_scale(args: argparse.Namespace) -> float | None:
    if args.log2_scale is not None:
        try:
            return math.ldexp(1.0, args.log2_scale)
        except OverflowError:
            raise UsageError(f"--log2-scale {args.log2_scale} overflows a double")
    return args.scale


def _resolve_box(args: argparse.Namespace, level: Level, scale: float | None) -> Box:
    if scale is not None:
        return standard_box(CubatureSpec(level, scale))
    d, corners = level.d, args.box
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
    fills = _fill(level, box, build_diag_ladder(level))  # refuses a far box here
    with _output(args) as out:
        if args.format == "csv":
            if args.header:
                print(",".join(f"x{j + 1}" for j in range(d)), file=out)
            _write_csv(out, fills, d, args.precision)
        else:
            for K, X in fills:
                ks, xs = K.tolist(), X.tolist()
                for i in range(0, len(xs), d):
                    print(_json_line(ks[i : i + d], xs[i : i + d]), file=out)
    return 0


def _write_csv(out: TextIO, fills: Iterator, d: int, precision: int) -> None:
    """Write the images X of each fill as CSV lines of d values.

    ``format_rows`` of the walker library formats each fill as one bytearray,
    written to the binary layer of ``out`` once the text layer is flushed,
    or decoded for a stream without one (such as ``io.StringIO``).
    """
    out.flush()
    raw = getattr(out, "buffer", None)
    write = raw.write if raw is not None else lambda b: out.write(str(b, "ascii"))
    format_rows = _library().format_rows
    for _, X in fills:
        write(format_rows(X, d, precision))


def _cmd_integrate(args: argparse.Namespace) -> int:
    level = Level.from_dimension(args.dim)
    scale = _resolve_scale(args)
    seed = getattr(args, "seed", None)  # integrate-random only
    shift = None if seed is None else sample_shift(seed, level.d)
    spec = CubatureSpec(level, scale)
    ladder = build_diag_ladder(level)
    f = INTEGRANDS[args.integrand]
    start = time.monotonic()
    result = integrate(spec, f, ladder, shift)
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
    from .verify import golden_rows, load_golden_table

    max_level = Level.from_dimension(args.max_dim)
    max_log2 = args.max_log2_scale
    if not golden_rows(max_level, max_log2):
        table = load_golden_table()
        raise UsageError(
            f"--max-dim {max_level.d} --max-log2-scale {max_log2} selects no golden row:"
            f" the table holds d >= {min(r.d for r in table)}"
            f" and log2N >= {min(r.log2n for r in table)}"
        )
    return max_level, max_log2


def _checks(max_level: Level, max_log2: int) -> Iterator[tuple[bool, str, str]]:
    """``verify``'s checks in order, each as (passed, label, detail): the
    unimodular check of each level up to ``UNIMODULAR_MAX_LEVEL``, the golden
    rows within the limits, each as it is counted, and the two-scale check of
    the rows within the limits clipped to d <= 8 and log2N <= 10."""
    from .verify import (UNIMODULAR_MAX_LEVEL, double_box_check, golden_rows,
                         reproduce_table, unimodular_check)

    for n in range(min(max_level.n, UNIMODULAR_MAX_LEVEL) + 1):
        check = unimodular_check(Level(n))
        detail = f"int_dev={check.max_integer_deviation:.2e}, det_dev={check.det_deviation:.2e}"
        yield check.passed, f"unimodular n={n}", detail
    for record, observed, match in reproduce_table(max_level, max_log2):
        label = f"golden d={record.d} log2N={record.log2n}"
        yield match, label, f"expected={record.count}, observed={observed}"
    for record in golden_rows(Level(min(max_level.n, 3)), min(max_log2, 10)):
        check = double_box_check(Level.from_dimension(record.d), float(2**record.log2n))
        label = f"double-box d={record.d} log2N={record.log2n}"
        yield check.agree, label, f"direct={check.direct}, filtered={check.filtered}"


def _cmd_verify(args: argparse.Namespace) -> int:
    max_level, max_log2 = _golden_limits(args)
    failures = 0
    with _output(args) as out:
        for passed, label, detail in _checks(max_level, max_log2):
            failures += not passed
            print(f"{label}: {'PASS' if passed else 'FAIL'} ({detail})", file=out)
        print(f"RESULT: {'PASS' if failures == 0 else f'FAIL ({failures} checks)'}", file=out)
    return 0 if failures == 0 else 1


def _cmd_table(args: argparse.Namespace) -> int:
    from .verify import golden_rows

    max_level, max_log2 = _golden_limits(args)
    with _output(args) as out:
        print("d,log2N,count", file=out)
        for record in golden_rows(max_level, max_log2):
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


def _add_scale_args(parser: argparse.ArgumentParser, box: bool = False) -> None:
    """``--scale``, ``--log2-scale`` and, with ``box``, ``--box``: exactly one of them."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--scale", type=float, help="scale N > 0")
    group.add_argument("--log2-scale", type=int, help="integer m for N = 2**m")
    if box:
        group.add_argument("--box", type=float, nargs="+", help="2d floats: lower then upper corner")


def _add_common_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write output to FILE instead of stdout")


class _NegativeNumber:
    """argparse's test of a negative number: a string that starts with ``-``
    and that ``float()`` reads, such as ``-1e-05``, ``-1_000`` or ``-inf``.
    argparse's own pattern takes these for options; ``Box`` and
    ``CubatureSpec`` refuse the values they must, with their own messages."""

    @staticmethod
    def match(arg: str) -> bool:
        try:
            float(arg)
        except ValueError:
            return False
        return arg.startswith("-")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, taking every negative number ``float()`` reads for a value."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)  # subparsers are of this class too
        self._negative_number_matcher = _NegativeNumber()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chebfrolov",
        description="Lattice point counting/enumeration and lattice-rule cubature.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count lattice points in a box")
    _add_dim_arg(p_count)
    _add_scale_args(p_count, box=True)
    _add_common_output(p_count)
    p_count.set_defaults(func=_cmd_count)

    p_points = sub.add_parser("points", help="stream lattice points, one per line")
    _add_dim_arg(p_points)
    _add_scale_args(p_points, box=True)
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
