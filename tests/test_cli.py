import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import chebfrolov
from chebfrolov import (
    Box,
    CubatureSpec,
    LatticePoint,
    Level,
    build_diag_ladder,
    enumerate_stream,
    standard_box,
)
from chebfrolov.cli import format_point, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def package_path():
    """PYTHONPATH for a child that must import the same package as this process."""
    src = str(Path(chebfrolov.__file__).resolve().parent.parent)
    return os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))


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
        assert out == reference_points(level, box, fmt, precision, False)

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_header_to_out_file(self, capsys, tmp_path, d):
        level = Level.from_dimension(d)
        box = standard_box(CubatureSpec(level, 2.0**self.SCALES[d]))
        target = tmp_path / "pts.csv"
        argv = ["points", "--dim", str(d), "--log2-scale", str(self.SCALES[d]),
                "--header", "--out", str(target)]
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, "")
        assert target.read_bytes() == reference_points(level, box, "csv", 17, True).encode()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("precision", [1, 6, 17])
    def test_explicit_off_centre_box(self, capsys, fmt, precision):
        lower, upper = (-3.25, 0.5, -7.0, 1.0), (9.5, 20.0, 4.0, 12.75)
        level = Level.from_dimension(4)
        argv = ["points", "--dim", "4", "--box", *map(str, lower + upper), "--header",
                "--format", fmt, "--precision", str(precision)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        expected = reference_points(level, Box(lower, upper), fmt, precision, True)
        assert out == expected
        assert out.count("\n") > 40

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
        code, _, err = run_cli(
            capsys, "count", "--dim", "2", "--log2-scale", "2", "--box", "0", "0", "1", "1"
        )
        assert code == 2

    def test_nan_box_rejected(self, capsys):
        code, _, err = run_cli(capsys, "count", "--dim", "1", "--box", "nan", "1")
        assert code == 2
        assert "finite" in err

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

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
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
            ("verify", "--max-dim", "3"),
            ("table", "--max-dim", "1"),
        ],
        ids=["count", "count-too-far", "points", "points-too-far", "integrate", "verify", "table"],
    )
    def test_usage_error_leaves_out_file(self, capsys, tmp_path, argv):
        target = tmp_path / "keep.txt"
        target.write_bytes(b"earlier output\n")
        code, _, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 2
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

    def test_precision_below_one(self, capsys):
        # rejected by the parser, before any point is formatted
        with pytest.raises(SystemExit) as exc:
            main(["points", "--dim", "1", "--box", "-1.5", "1.5", "--precision", "0"])
        assert exc.value.code == 2
        assert "--precision" in capsys.readouterr().err


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
level = Level(3)
ladder = build_diag_ladder(level)
spec = CubatureSpec(level, 2.0**8)
box = standard_box(spec)
n = count_points(level, box, ladder)
assert enumerate_stream(level, box, ladder, lambda p: None) == n
apply_generator(ladder, [1.0] * 8)
shift = sample_shift(1, 8)
_, shift_vector = randomized_box(spec, shift, ladder)
for compensated in (False, True):
    assert integrate(spec, lambda x: 1.0, ladder, compensated=compensated).node_count == n
    assert integrate(spec, lambda x: 1.0, ladder, shift, compensated=compensated).node_count
map_to_unit([0.0] * 8, spec)
map_to_unit([-v for v in shift_vector], spec, shift, shift_vector)
assert unimodular_check(Level(3)).passed
assert double_box_check(Level(2), 16.0).agree
with contextlib.redirect_stdout(io.StringIO()):
    assert chebfrolov.cli.main(["count", "--dim", "8", "--log2-scale", "8"]) == 0
    assert chebfrolov.cli.main(["integrate", "--dim", "8", "--log2-scale", "8"]) == 0
    assert chebfrolov.cli.main(["integrate-random", "--dim", "8", "--log2-scale", "8"]) == 0
    assert chebfrolov.cli.main(["verify", "--max-dim", "8", "--max-log2-scale", "6"]) == 0
    assert chebfrolov.cli.main(["table", "--max-dim", "4", "--max-log2-scale", "3"]) == 0
assert chebfrolov.cli.main(["points", "--dim", "8", "--log2-scale", "8", "--out", sys.argv[1]]) == 0
assert "numpy" not in sys.modules, "numpy was loaded"
if sys.argv[2] == "batches":
    assert sum(len(K) for K, X in enumerate_batches(level, box, ladder, 100)) == n
else:
    assert len(oracle_enumerate(Level(1), Box.symmetric(2.0, 2))) == 7
assert "numpy" in sys.modules
print(n)
"""


def test_numpy_loaded_only_where_arrays_are_built(tmp_path):
    # importing, counting, streaming, integration (both rules), map_to_unit,
    # the unimodular and double-box checks and every CLI command run
    # without numpy; the batches and the oracle still load it, each in a
    # child of its own
    target = tmp_path / "pts.csv"
    for loader in ("batches", "oracle"):
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_FREE_CHILD, str(target), loader],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": package_path()},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        n = int(proc.stdout)
        assert n > 200
        assert target.read_text().count("\n") == n
