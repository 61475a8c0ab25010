import contextlib
import importlib.machinery
import importlib.util
import io
import json
import math
import os
import random
import re
import shutil
import struct
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chebfrolov
from chebfrolov import (
    Box,
    CubatureSpec,
    LatticePoint,
    Level,
    apply_generator,
    build_diag_ladder,
    enumerate_stream,
    standard_box,
)
from chebfrolov import enumeration
from chebfrolov.cli import _write_csv, main
from chebfrolov.enumeration import _library


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def package_path():
    """PYTHONPATH for a child that must import the same package as this process."""
    src = str(Path(chebfrolov.__file__).resolve().parent.parent)
    return os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))


def format_point(point, fmt, precision):
    """One line of ``points`` for a point: the CSV of x, or a JSONL object
    with k and x.  The Python reference of the bytes the CLI writes; no
    double has more than 767 significant digits, so higher precisions print
    the text of ``.767g``."""
    if fmt == "csv":
        p = min(precision, 767)
        return ",".join([f"{c:.{p}g}" for c in point.x])
    return json.dumps({"k": list(point.k), "x": list(point.x)}, separators=(",", ":"))


def reference_points(level, box, fmt, precision, header):
    """What ``points`` must print: one ``format_point`` line per streamed point."""
    lines = [",".join(f"x{j + 1}" for j in range(level.d))] if header and fmt == "csv" else []

    def consumer(point):
        line = format_point(point, fmt, precision)
        if fmt == "csv":  # format_point keeps the per-coordinate rule
            assert line == ",".join(format(c, f".{precision}g") for c in point.x)
        lines.append(line)

    enumerate_stream(level, box, build_diag_ladder(level), consumer)
    return "".join(line + "\n" for line in lines)


def assert_same_lines(out, expected):
    """``out == expected`` to the byte, trailing newline included, asserted on
    the first line that differs: pytest's diff of two whole outputs of about
    200 kB runs for minutes, and so does its diff of their lists of lines
    under ``-v``."""
    got, want = out.splitlines(keepends=True), expected.splitlines(keepends=True)
    for number, (line, wanted) in enumerate(zip(got, want), 1):
        assert line == wanted, f"line {number}"
    assert len(got) == len(want)


class TestFormatPoint:
    def test_csv_zeros(self):
        assert format_point(LatticePoint((0, 0), (0.0, 0.0)), "csv", 17) == "0,0"

    def test_csv_full_precision(self):
        point = LatticePoint((0, 1), (1.4142135623730951, -1.4142135623730951))
        assert format_point(point, "csv", 17) == "1.4142135623730951,-1.4142135623730951"

    def test_csv_reduced_precision(self):
        point = LatticePoint((0, 1), (1.4142135623730951, -1.4142135623730951))
        assert format_point(point, "csv", 6) == "1.41421,-1.41421"

    def test_jsonl(self):
        point = LatticePoint((0, 1), (1.4142135623730951, -1.4142135623730951))
        assert (
            format_point(point, "jsonl", 17)
            == '{"k":[0,1],"x":[1.4142135623730951,-1.4142135623730951]}'
        )

    def test_precision_beyond_any_double(self):
        # no double has more than 767 significant digits: higher precisions
        # print the text of .767g, which Python itself refuses from 2**31 on
        point = LatticePoint((0, 1), (0.1, -5e-324))
        expected = f"{0.1:.5000g},{-5e-324:.5000g}"
        assert format_point(point, "csv", 767) == expected
        assert format_point(point, "csv", 2**31) == expected
        assert len(expected) > 800  # 5e-324 has 751 significant digits


def csv_text(rows, precision):
    """What CSV lines of these rows must read: Python's ``.{precision}g``."""
    return "".join(",".join(f"{v:.{precision}g}" for v in row) + "\n" for row in rows)


def write_csv(rows, precision, out):
    """The CSV text ``_write_csv`` writes to ``out`` for rows of equal length,
    given as one fill."""
    X = array("d", [v for row in rows for v in row])
    _write_csv(out, [(None, memoryview(X))], len(rows[0]), precision)
    out.flush()
    return out.buffer.getvalue().decode() if hasattr(out, "buffer") else out.getvalue()


#: Finite doubles drawn from raw 64-bit patterns: every exponent, subnormals
#: among them, is as likely as any other.
finite_doubles = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
).filter(math.isfinite)

#: Both zeros, subnormals, the limits of the normal range, integers past
#: 2**53, exact ties at one or two digits (0.5, 2.5, 3.5, 0.125, 9.5) and
#: the switches between fixed and exponent notation.
SPECIAL_DOUBLES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 2.0**53 - 2, 2.0**53 + 2,
    0.5, 2.5, 3.5, -2.5, 0.25, 0.125, 9.5, 1e22, 1e-5, 1e-4, 123456789.0, 0.1,
]


#: Values the walker's printf writes: zeros, subnormals, products past 128
#: bits (|x| outside [2^-75, 2^127), 1e+-300, 2^1023), and at precisions
#: past 19 every value; the rest are made from exact integers.
FALLBACK_DOUBLES = [
    0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    2.0**-75, math.nextafter(2.0**-75, 0.0), 2.0**127, math.nextafter(2.0**127, 0.0),
    1e300, -1e300, 1e-300, -1e-300, 2.0**1023, 0.1, -1.5,
]
FALLBACK_PRECISIONS = [1, 5, 17, 19, 20, 767]


class TestFormatRows:
    """``format_rows`` of the walker library writes Python's ``.{p}g`` text, byte for byte."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(
                st.lists(finite_doubles, min_size=d, max_size=d), min_size=1, max_size=20
            )
        ),
        st.one_of(st.integers(1, 40), st.just(767)),
    )
    @example([[0.5, 2.5, 3.5, -0.5]], 1)
    def test_random_bit_patterns(self, rows, precision):
        expected = csv_text(rows, precision)
        assert write_csv(rows, precision, io.TextIOWrapper(io.BytesIO())) == expected

    @pytest.mark.parametrize("precision", [*range(1, 41), 767])
    def test_special_values(self, precision):
        for rows in ([[v] for v in SPECIAL_DOUBLES], [SPECIAL_DOUBLES]):
            expected = csv_text(rows, precision)
            assert write_csv(rows, precision, io.TextIOWrapper(io.BytesIO())) == expected
            # a text stream without a binary layer gets the same text
            assert write_csv(rows, precision, io.StringIO()) == expected

    @pytest.mark.parametrize("precision", [768, 4097, 2**63 - 1, 10**30])
    def test_precisions_past_767_write_its_text(self, precision):
        # the walker clips the precision at 767, past which no double's text
        # changes; a precision past Py_ssize_t is clipped to it first
        X = array("d", SPECIAL_DOUBLES)
        format_rows = _library().format_rows
        assert format_rows(X, 2, precision) == format_rows(X, 2, 767)
        assert write_csv([SPECIAL_DOUBLES], precision, io.StringIO()) == csv_text(
            [SPECIAL_DOUBLES], 767
        )

    def test_ties_round_to_even(self):
        assert write_csv([[0.5, 2.5, 3.5, -2.5]], 1, io.StringIO()) == "0.5,2,4,-2\n"

    def test_standard_box_images(self):
        # the walker writes up to 19 digits from exact integers: every image
        # of a d=8 standard box at each of those precisions
        level = Level(3)
        box, rows = standard_box(CubatureSpec(level, 2.0**10)), []
        enumerate_stream(level, box, build_diag_ladder(level), lambda point: rows.append(point.x))
        assert len(rows) > 500
        for precision in range(1, 20):
            assert write_csv(rows, precision, io.StringIO()) == csv_text(rows, precision)

    @pytest.mark.parametrize("precision", range(1, 20))
    def test_exact_decimal_ties(self, precision):
        # c / 2^k, c odd, is c 5^k / 10^k: its last decimal digit is a 5, so
        # where c 5^k has precision + 1 digits the value is a tie at precision
        ties = []
        for k in range(40):
            low = -(-(10**precision) // 5**k)
            for c in range(low | 1, min(low + 40, 2**53), 2):
                digits = str(c * 5**k)
                if len(digits) == precision + 1 and digits[-1] == "5":
                    ties += [[c / 2**k], [-c / 2**k]]
        assert len(ties) >= 8
        assert write_csv(ties, precision, io.StringIO()) == csv_text(ties, precision)

    def test_rounding_carries_across_a_power_of_ten(self):
        assert write_csv([[9.5, 9.99995e-5]], 1, io.StringIO()) == "1e+01,0.0001\n"
        below, above = 9.99995e-5, 9.999950000000001e-05
        assert write_csv([[below, above]], 5, io.StringIO()) == "9.9999e-05,0.0001\n"
        # the least value that rounds up to 10^(e+1) at each precision, and its
        # neighbours: the carry lands on both sides of the notation switches
        for precision in range(1, 20):
            rows = []
            least = Fraction(10 ** (precision + 1) - 5, 10 ** (precision + 1))
            for e in range(-8, 23):
                mid = float(least * Fraction(10) ** (e + 1))
                rows.append([mid, math.nextafter(mid, 0.0), math.nextafter(mid, math.inf), -mid])
            assert write_csv(rows, precision, io.StringIO()) == csv_text(rows, precision)

    @pytest.mark.parametrize("precision", FALLBACK_PRECISIONS)
    def test_past_the_exact_digits(self, precision):
        rows = [[x] for x in FALLBACK_DOUBLES]
        assert write_csv(rows, precision, io.StringIO()) == csv_text(rows, precision)

    def test_build_without_int128_writes_the_same_bytes(self, tmp_path):
        # a compiler without unsigned __int128 builds no exact digits, and
        # printf writes every value: that branch compiles without a warning
        # and writes the package build's bytes
        source = Path(enumeration.__file__).with_name("_walk.c")
        target = tmp_path / f"_walk{importlib.machinery.EXTENSION_SUFFIXES[0]}"
        flags = ["-U__SIZEOF_INT128__", "-Wall", "-Wextra", "-Werror"]
        command = enumeration._build_command(source, target)
        command[1:1] = flags
        proc = subprocess.run(command, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        macros = subprocess.run([command[0], *flags, "-dM", "-E", "-x", "c", os.devnull],
                                capture_output=True, text=True, check=True).stdout
        assert "__SIZEOF_INT128__" not in macros
        loader = importlib.machinery.ExtensionFileLoader("noint128._walk", str(target))
        noint128 = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
        loader.exec_module(noint128)
        package = _library()
        level = Level(3)
        box = standard_box(CubatureSpec(level, 2.0**12))
        images = [X for _, X in enumeration._fill(level, box, build_diag_ladder(level))]
        assert sum(map(len, images)) > 30_000
        for precision in [*range(1, 21), 767]:
            for X in images:
                assert noint128.format_rows(X, 8, precision) == package.format_rows(X, 8, precision)
        X = array("d", FALLBACK_DOUBLES + SPECIAL_DOUBLES)
        for precision in FALLBACK_PRECISIONS:
            assert noint128.format_rows(X, 1, precision) == package.format_rows(X, 1, precision)

    def test_independent_of_lc_numeric(self, tmp_path):
        # printf takes its decimal point from LC_NUMERIC; format_rows pins the
        # C locale, so a locale with a decimal comma changes no byte
        source = tmp_path / "comma.src"
        source.write_text(
            'LC_NUMERIC\ndecimal_point ","\nthousands_sep "."\ngrouping 3;3\nEND LC_NUMERIC\n'
        )
        if shutil.which("localedef") is None:
            pytest.skip("localedef is not installed")
        subprocess.run(
            ["localedef", "-c", "-i", str(source), "-f", "UTF-8", str(tmp_path / "comma")],
            capture_output=True,
            timeout=120,
        )
        if not (tmp_path / "comma" / "LC_NUMERIC").exists():
            pytest.skip("localedef could not build a test locale")
        target = tmp_path / "pts.csv"
        argv = ["points", "--dim", "4", "--log2-scale", "6", "--out", str(target)]
        code = (
            "import locale, sys\n"
            "import chebfrolov.cli\n"
            "locale.setlocale(locale.LC_NUMERIC, 'comma')\n"
            "assert locale.localeconv()['decimal_point'] == ','\n"
            "sys.exit(chebfrolov.cli.main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": package_path(), "LOCPATH": str(tmp_path)},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        level = Level(2)
        box = standard_box(CubatureSpec(level, 64.0))
        expected = reference_points(level, box, "csv", 17, False)
        assert_same_lines(target.read_text(), expected)
        assert "." in expected


class TestCount:
    def test_golden_row(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--dim", "4", "--log2-scale", "10")
        assert code == 0
        summary = json.loads(out)
        assert summary["d"] == 4
        assert summary["N"] == 1024
        assert summary["count"] == 1025
        assert summary["seconds"] >= 0.0

    def test_explicit_box(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--dim", "2", "--box", "-2", "-2", "2", "2")
        assert code == 0
        assert json.loads(out)["count"] == 7

    def test_box_in_exponent_notation(self, capsys):
        # argparse's own pattern of a negative number has no exponent
        summaries = []
        for box in (["-0.001", "-2", "1", "1"], ["-1e-3", "-2", "1", "1"],
                    ["-1E-03", "-2e0", "1e+0", "10E-1"]):
            code, out, err = run_cli(capsys, "count", "--dim", "2", "--box", *box)
            assert (code, err) == (0, "")
            summary = json.loads(out)
            del summary["seconds"]
            summaries.append(summary)
        assert summaries == [{"d": 2, "N": None, "count": 2}] * 3

    def test_box_with_underscores(self, capsys):
        # float() reads -1_000; argparse's own pattern took it for an option
        counts = []
        for corner in ("-1_000", "-1000"):
            code, out, err = run_cli(capsys, "count", "--dim", "2", "--box", corner, corner, "1", "1")
            assert (code, err) == (0, "")
            counts.append(json.loads(out)["count"])
        assert counts[0] == counts[1] > 0

    def test_points_row_in_exponent_notation_is_a_box(self, capsys):
        # 19601 / 13860 is a convergent of sqrt(2): x_1 of k = (-19601, 13860)
        # is about -2.6e-05, which %.17g prints with an exponent
        x = apply_generator(build_diag_ladder(Level(1)), (-19601, 13860))
        box = [repr(v - 0.25) for v in x] + [repr(v + 0.25) for v in x]
        code, out, _ = run_cli(capsys, "points", "--dim", "2", "--box", *box)
        assert code == 0
        row = next(line.split(",") for line in out.splitlines() if "e-05" in line)
        assert row[0].startswith("-") and row[0].endswith("e-05")
        code, out, err = run_cli(capsys, "count", "--dim", "2", "--box", *row, *row)
        assert (code, err) == (0, "")
        assert json.loads(out)["count"] >= 1


class TestPoints:
    def test_one_dimensional_interval(self, capsys):
        code, out, _ = run_cli(capsys, "points", "--dim", "1", "--box", "-1.5", "1.5")
        assert code == 0
        assert out.splitlines() == ["-1", "0", "1"]

    def test_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "points", "--dim", "2", "--box", "-2", "-2", "2", "2", "--header"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x1,x2"
        assert len(lines) == 8

    def test_jsonl_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "points", "--dim", "2", "--box", "-2", "-2", "2", "2",
            "--format", "jsonl",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 7
        assert all(set(r) == {"k", "x"} for r in rows)
        assert [0, 0] in [r["k"] for r in rows]

    def test_deterministic_output(self, capsys):
        args = ("points", "--dim", "4", "--log2-scale", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert len(first.splitlines()) == 31

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "pts.csv"
        code, out, _ = run_cli(
            capsys, "points", "--dim", "1", "--box", "-1.5", "1.5", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines() == ["-1", "0", "1"]


class TestPointsBytes:
    """``points`` prints exactly the lines ``format_point`` gives for the stream."""

    SCALES = {1: 6, 2: 6, 8: 10}  # d = 8, N = 2**10 takes several fills

    @pytest.mark.parametrize("precision", [1, 6, 17])
    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_standard_box(self, capsys, fmt, d, precision):
        log2 = self.SCALES[d]
        level = Level.from_dimension(d)
        box = standard_box(CubatureSpec(level, 2.0**log2))
        argv = ["points", "--dim", str(d), "--log2-scale", str(log2),
                "--format", fmt, "--precision", str(precision)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert_same_lines(out, reference_points(level, box, fmt, precision, False))

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_header_to_out_file(self, capsys, tmp_path, d):
        level = Level.from_dimension(d)
        box = standard_box(CubatureSpec(level, 2.0**self.SCALES[d]))
        target = tmp_path / "pts.csv"
        argv = ["points", "--dim", str(d), "--log2-scale", str(self.SCALES[d]),
                "--header", "--out", str(target)]
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, "")
        expected = reference_points(level, box, "csv", 17, True).encode()
        assert_same_lines(target.read_bytes(), expected)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("precision", [1, 6, 17])
    def test_explicit_off_centre_box(self, capsys, fmt, precision):
        lower, upper = (-3.25, 0.5, -7.0, 1.0), (9.5, 20.0, 4.0, 12.75)
        level = Level.from_dimension(4)
        argv = ["points", "--dim", "4", "--box", *map(str, lower + upper), "--header",
                "--format", fmt, "--precision", str(precision)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert_same_lines(out, reference_points(level, Box(lower, upper), fmt, precision, True))
        assert out.count("\n") > 40

    #: Half-widths of the seeded boxes: about 10 to 1,000 points each
    HALF_WIDTH = {2: 6.0, 4: 4.0, 8: 3.0, 16: 5.0, 32: 5.0, 64: 4.0}

    @pytest.mark.parametrize("precision", [1, 17, 767])
    @pytest.mark.parametrize("d", [2, 4, 8, 16, 32, 64])
    def test_seeded_boxes(self, capsys, d, precision):
        # boxes of random widths around the image of a random k
        rng = random.Random(1000 + d)
        level = Level.from_dimension(d)
        ladder = build_diag_ladder(level)
        lines = 0
        for _ in range(3):
            centre = apply_generator(ladder, [rng.randint(-50, 50) for _ in range(d)])
            half = [rng.uniform(0.5, 1.0) * self.HALF_WIDTH[d] for _ in range(d)]
            box = Box([c - h for c, h in zip(centre, half)], [c + h for c, h in zip(centre, half)])
            argv = ["points", "--dim", str(d), "--box", *map(repr, box.lower + box.upper),
                    "--precision", str(precision)]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert_same_lines(out, reference_points(level, box, "csv", precision, False))
            lines += out.count("\n")
        assert lines > 3

    def test_precision_beyond_any_double(self, capsys, tmp_path):
        # from 2**31 on, Python refuses the precision; the CLI prints what
        # .767g prints, the text of every precision from 767 on
        level = Level(2)
        box = standard_box(CubatureSpec(level, 64.0))
        target = tmp_path / "pts.csv"
        target.write_text("keep\n")
        for precision in (767, 5000, 2**31, 2**64, 10**30):
            argv = ["points", "--dim", "4", "--log2-scale", "6", "--precision", str(precision),
                    "--out", str(target)]
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (0, "", "")
            assert_same_lines(target.read_text(), reference_points(level, box, "csv", 5000, False))

    def test_stream_without_binary_layer(self, capsys):
        # main() run with stdout redirected to io.StringIO writes decoded text
        level = Level(3)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(["points", "--dim", "8", "--log2-scale", "10", "--header"])
        assert code == 0
        box = standard_box(CubatureSpec(level, 1024.0))
        assert_same_lines(buffer.getvalue(), reference_points(level, box, "csv", 17, True))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_empty_box(self, capsys, fmt):
        argv = ["points", "--dim", "2", "--box", "1", "0", "0", "1", "--header", "--format", fmt]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == ("x1,x2\n" if fmt == "csv" else "")


class TestIntegrate:
    def test_constant_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "--dim", "4", "--log2-scale", "10", "--integrand", "one"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["nodeCount"] == 1025
        assert summary["value"] == 1025.0 / 1024.0

    def test_random_seeded_deterministic(self, capsys):
        args = ("integrate-random", "--dim", "2", "--log2-scale", "6", "--seed", "7")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        a, b = json.loads(first), json.loads(second)
        assert a["value"] == b["value"]
        assert a["nodeCount"] == b["nodeCount"]
        assert a["seed"] == 7

    def test_identity_matches_deterministic_shape(self, capsys):
        _, det_out, _ = run_cli(capsys, "integrate", "--dim", "2", "--log2-scale", "6")
        det = json.loads(det_out)
        assert det["integrand"] == "cospi"
        assert det["nodeCount"] == 65


class TestVerifyCommand:
    def test_small_budget_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max-dim", "4", "--max-log2-scale", "6"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "RESULT: PASS"
        assert any(line.startswith("unimodular n=2: PASS") for line in lines)
        assert any(line.startswith("golden d=4 log2N=6: PASS") for line in lines)
        assert any(line.startswith("double-box d=2 log2N=1: PASS") for line in lines)

    def test_default_budget_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max-dim", "8", "--max-log2-scale", "10"
        )
        assert code == 0
        assert out.splitlines()[-1] == "RESULT: PASS"


def expected_verify_lines(max_dim, max_log2):
    """The lines ``verify`` prints when every check passes, built from the
    golden table; the unimodular deviation figures are left as ``*``."""
    table = chebfrolov.load_golden_table()
    lines = [
        f"unimodular n={n}: PASS (int_dev=*, det_dev=*)"
        for n in range(min(max_dim.bit_length() - 1, 3) + 1)
    ]
    lines += [
        f"golden d={r.d} log2N={r.log2n}: PASS (expected={r.count}, observed={r.count})"
        for r in table
        if r.d <= max_dim and r.log2n <= max_log2
    ]
    lines += [
        f"double-box d={r.d} log2N={r.log2n}: PASS (direct={r.count}, filtered={r.count})"
        for r in table
        if r.d <= min(max_dim, 8) and r.log2n <= min(max_log2, 10)
    ]
    return lines + ["RESULT: PASS"]


class TestVerifyLines:
    @pytest.mark.parametrize("max_dim,max_log2", [(16, 12), (2, 3)])
    def test_lines_byte_identical_but_deviations(self, capsys, max_dim, max_log2):
        code, out, _ = run_cli(
            capsys, "verify", "--max-dim", str(max_dim), "--max-log2-scale", str(max_log2)
        )
        assert code == 0
        pattern = re.compile(r"int_dev=(\S+), det_dev=(\S+)\)$")
        deviations = []
        lines = []
        for line in out.splitlines():
            match = pattern.search(line)
            if match:
                deviations += map(float, match.groups())
                line = line[: match.start()] + "int_dev=*, det_dev=*)"
            lines.append(line)
        assert lines == expected_verify_lines(max_dim, max_log2)
        assert out.endswith("\n")
        assert deviations and max(deviations) < 1e-12


class TestVerifyFailure:
    def test_one_failed_check(self, capsys, monkeypatch):
        # the two-scale check of one row disagrees: its line alone reads FAIL,
        # the run goes on, and the result counts that one check
        from chebfrolov import verify

        real = verify.double_box_check

        def double_box_check(level, scale):
            check = real(level, scale)
            if (level.d, scale) == (4, 8.0):
                return check._replace(filtered=check.filtered + 1, agree=False)
            return check

        monkeypatch.setattr(verify, "double_box_check", double_box_check)
        code, out, _ = run_cli(capsys, "verify", "--max-dim", "4", "--max-log2-scale", "6")
        assert code == 1
        lines = [
            re.sub(r"int_dev=\S+, det_dev=\S+\)$", "int_dev=*, det_dev=*)", line)
            for line in out.splitlines()
        ]
        n = next(r.count for r in chebfrolov.load_golden_table() if (r.d, r.log2n) == (4, 3))
        expected = expected_verify_lines(4, 6)
        row = expected.index(f"double-box d=4 log2N=3: PASS (direct={n}, filtered={n})")
        expected[row] = f"double-box d=4 log2N=3: FAIL (direct={n}, filtered={n + 1})"
        expected[-1] = "RESULT: FAIL (1 checks)"
        assert lines == expected


class TestTableCommand:
    def test_dump(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-dim", "2", "--max-log2-scale", "3")
        assert code == 0
        assert out.splitlines() == ["d,log2N,count", "2,1,3", "2,2,5", "2,3,7"]


class TestUsageErrors:
    def test_dimension_not_power_of_two(self, capsys):
        code, _, err = run_cli(capsys, "count", "--dim", "3", "--log2-scale", "2")
        assert code == 2
        assert "power of two" in err

    def test_scale_and_box_are_exclusive(self, capsys):
        # rejected by the parser: exactly one of --scale, --log2-scale and --box
        with pytest.raises(SystemExit) as exc:
            main(["count", "--dim", "2", "--log2-scale", "2", "--box", "0", "0", "1", "1"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_nan_box_rejected(self, capsys):
        code, _, err = run_cli(capsys, "count", "--dim", "1", "--box", "nan", "1")
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize("corner", ["-inf", "-nan"])
    def test_negative_non_finite_corner_reaches_the_box(self, capsys, corner):
        # a value, not an option: the box refuses it as it refuses inf and nan
        code, _, err = run_cli(capsys, "count", "--dim", "2", "--box", corner, "0", "1", "1")
        assert code == 2
        assert "box corners must be finite" in err

    def test_wrong_box_arity(self, capsys):
        code, _, err = run_cli(capsys, "count", "--dim", "2", "--box", "0", "1")
        assert code == 2

    def test_dimension_over_limit(self, capsys):
        code, _, err = run_cli(capsys, "count", "--dim", "128", "--log2-scale", "1")
        assert code == 2
        assert "64" in err

    def test_env_var_does_not_lift_limit(self, capsys, monkeypatch):
        # no variable lifts the limit: at d = 512 some face boxes counted 0
        # while their points were streamed
        monkeypatch.setenv("FROLOV_MAX_LEVEL", "9")
        code, _, err = run_cli(capsys, "count", "--dim", "512", "--box", *["0"] * 1024)
        assert code == 2
        assert "64" in err

    def test_missing_dimension(self, capsys):
        # rejected by the parser: --dim is required
        with pytest.raises(SystemExit) as exc:
            main(["count", "--log2-scale", "2"])
        assert exc.value.code == 2
        assert "--dim" in capsys.readouterr().err

    def test_log2_scale_overflow(self, capsys):
        code, _, err = run_cli(capsys, "count", "--dim", "2", "--log2-scale", "2000")
        assert code == 2
        assert "--log2-scale" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--dim", "2", "--log2-scale", "1023"),
            ("count", "--dim", "32", "--log2-scale", "1023"),
            ("integrate", "--dim", "2", "--log2-scale", "1023"),
            ("count", "--dim", "1", "--scale", "1e-320"),
        ],
    )
    def test_scale_out_of_double_range(self, capsys, argv):
        # |det| N overflows (shrink 0) or the shrink itself overflows
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "out of range" in err

    def test_scale_needing_huge_coordinates(self):
        # the box half-width is about 1e154: the walk would never end, so it
        # must be refused up front; a child process, so a hang is a failure
        src = str(Path(chebfrolov.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "chebfrolov.cli", "count", "--dim", "2", "--log2-scale", "1022"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert proc.returncode == 2
        assert "2**62" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf", "-inf"])
    def test_bad_scale(self, capsys, scale):
        code, _, err = run_cli(capsys, "count", "--dim", "2", "--scale", scale)
        assert code == 2
        assert "scale" in err

    def test_unwritable_out_file(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, _, err = run_cli(
            capsys, "count", "--dim", "2", "--log2-scale", "1", "--out", str(target)
        )
        assert code == 2
        assert "x.json" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--dim", "3", "--log2-scale", "4"),
            ("count", "--dim", "2", "--log2-scale", "1022"),
            ("points", "--dim", "2", "--box", "0", "1"),
            ("points", "--dim", "2", "--log2-scale", "1022"),
            ("integrate", "--dim", "2"),
            ("integrate-random", "--dim", "2", "--log2-scale", "6", "--seed", "-3"),
            ("verify", "--max-dim", "3"),
            ("table", "--max-dim", "1"),
        ],
        ids=["count", "count-too-far", "points", "points-too-far", "integrate", "negative-seed",
             "verify", "table"],
    )
    def test_usage_error_leaves_out_file(self, capsys, tmp_path, argv):
        # integrate without a scale is the parser's refusal, a SystemExit; a
        # negative seed would repeat the shift of its absolute value
        target = tmp_path / "keep.txt"
        target.write_bytes(b"earlier output\n")
        try:
            code, _, err = run_cli(capsys, *argv, "--out", str(target))
        except SystemExit as exc:
            code, err = exc.code, capsys.readouterr().err
        assert code == 2
        if "--seed" in argv:
            assert err == "error: seed must be an integer >= 0, got -3\n"
        assert target.read_bytes() == b"earlier output\n"

    @pytest.mark.parametrize(
        "argv",
        [("--max-dim", "1"), ("--max-log2-scale", "0"), ("--max-log2-scale", "-2")],
        ids=["max-dim-1", "max-log2-scale-0", "max-log2-scale-negative"],
    )
    def test_verify_limits_selecting_no_golden_row(self, capsys, argv):
        # such limits check no golden row, so a PASS would say nothing
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert "RESULT" not in out
        assert "d >= 2" in err and "log2N >= 1" in err

    @pytest.mark.parametrize(
        "argv",
        [("--max-dim", "1"), ("--max-log2-scale", "0"), ("--max-log2-scale", "-2")],
        ids=["max-dim-1", "max-log2-scale-0", "max-log2-scale-negative"],
    )
    def test_table_limits_selecting_no_golden_row(self, capsys, argv):
        # a bare header with exit 0 would read as an empty table
        code, out, err = run_cli(capsys, "table", *argv)
        assert code == 2
        assert out == ""
        assert "selects no golden row" in err
        assert "d >= 2" in err and "log2N >= 1" in err

    @pytest.mark.parametrize("max_dim", ["0", "3", "128"])
    def test_table_max_dim_is_a_dimension(self, capsys, max_dim):
        # read through Level.from_dimension, as verify reads it
        code, out, err = run_cli(capsys, "table", "--max-dim", max_dim)
        assert code == 2
        assert out == ""
        assert ("power of two" if max_dim != "128" else "64") in err
        assert run_cli(capsys, "verify", "--max-dim", max_dim)[2] == err

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--dim", "2", "--scale", "4", "--log2-scale", "2"),
            ("integrate", "--dim", "2"),
        ],
        ids=["scale-and-log2-scale", "integrate"],
    )
    def test_parser_states_the_scale_choice(self, tmp_path, argv):
        # not exactly one of --scale, --log2-scale and --box: the parser's
        # usage message, with no traceback, and --out is never opened
        target = tmp_path / "keep.txt"
        target.write_bytes(b"earlier output\n")
        proc = subprocess.run(
            [sys.executable, "-m", "chebfrolov.cli", *argv, "--out", str(target)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": package_path()},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "usage: chebfrolov" in proc.stderr and "--log2-scale" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert target.read_bytes() == b"earlier output\n"

    def test_precision_below_one(self, capsys):
        # rejected by the parser, before any point is formatted
        with pytest.raises(SystemExit) as exc:
            main(["points", "--dim", "1", "--box", "-1.5", "1.5", "--precision", "0"])
        assert exc.value.code == 2
        assert "--precision" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["integrate", "integrate-random"])
    def test_integrate_has_one_sum(self, capsys, command):
        # the sum is the plain sequential one: there is no --compensated
        with pytest.raises(SystemExit) as exc:
            main([command, "--dim", "2", "--log2-scale", "4", "--compensated"])
        assert exc.value.code == 2
        assert "--compensated" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("chebfrolov") is None, reason="console script not installed")
def test_console_script_entry_point():
    proc = subprocess.run(
        ["chebfrolov", "count", "--dim", "2", "--log2-scale", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 3


def test_module_invocation():
    # the child must import the same package as this process, installed or not
    proc = subprocess.run(
        [sys.executable, "-m", "chebfrolov.cli", "count", "--dim", "2", "--log2-scale", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_path()},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 3


NUMPY_FREE_CHILD = """
import contextlib, io, sys
import chebfrolov, chebfrolov.cli
from chebfrolov import *
from chebfrolov.verify import double_box_check, unimodular_check
level = Level(3)
ladder = build_diag_ladder(level)
spec = CubatureSpec(level, 2.0**8)
box = standard_box(spec)
n = count_points(level, box, ladder)
assert enumerate_stream(level, box, ladder, lambda p: None) == n
apply_generator(ladder, [1.0] * 8)
shift = sample_shift(1, 8)
randomized_box(spec, shift, ladder)
assert integrate(spec, lambda x: 1.0, ladder).node_count == n
assert integrate(spec, lambda x: 1.0, ladder, shift).node_count
assert unimodular_check(Level(3)).passed
assert double_box_check(Level(2), 16.0).agree
assert len(oracle_enumerate(Level(1), Box.symmetric(2.0, 2))) == 7
with contextlib.redirect_stdout(io.StringIO()):
    assert chebfrolov.cli.main(["count", "--dim", "8", "--log2-scale", "8"]) == 0
    assert chebfrolov.cli.main(["integrate", "--dim", "8", "--log2-scale", "8"]) == 0
    assert chebfrolov.cli.main(["integrate-random", "--dim", "8", "--log2-scale", "8"]) == 0
    assert chebfrolov.cli.main(["verify", "--max-dim", "8", "--max-log2-scale", "6"]) == 0
    assert chebfrolov.cli.main(["table", "--max-dim", "4", "--max-log2-scale", "3"]) == 0
assert chebfrolov.cli.main(["points", "--dim", "8", "--log2-scale", "8", "--out", sys.argv[1]]) == 0
assert "numpy" not in sys.modules, "numpy was loaded"
assert sum(len(K) for K, X in enumerate_batches(level, box, ladder, 100)) == n
assert "numpy" in sys.modules
print(n)
"""


def test_numpy_loaded_only_where_arrays_are_built(tmp_path):
    # importing, counting, streaming, integration (both rules),
    # the oracle, the unimodular and double-box checks and every CLI command
    # run without numpy; only the batches load it
    target = tmp_path / "pts.csv"
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_CHILD, str(target)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_path()},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    n = int(proc.stdout)
    assert n > 200
    assert target.read_text().count("\n") == n
