import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import chebfrolov
from chebfrolov import LatticePoint
from chebfrolov.cli import format_point, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_level_flag(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--level", "1", "--log2-scale", "1")
        assert code == 0
        assert json.loads(out)["count"] == 3


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

    def test_level_over_cap(self, capsys):
        code, _, err = run_cli(capsys, "count", "--level", "6", "--log2-scale", "1")
        assert code == 2
        assert "cap" in err

    def test_env_var_lowers_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("FROLOV_MAX_LEVEL", "2")
        code, _, err = run_cli(capsys, "count", "--dim", "8", "--log2-scale", "1")
        assert code == 2

    def test_missing_dimension(self, capsys):
        code, _, err = run_cli(capsys, "count", "--log2-scale", "2")
        assert code == 2

    def test_log2_scale_overflow(self, capsys):
        code, _, err = run_cli(capsys, "count", "--dim", "2", "--log2-scale", "2000")
        assert code == 2
        assert "--log2-scale" in err

    def test_unwritable_out_file(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, _, err = run_cli(
            capsys, "count", "--dim", "2", "--log2-scale", "1", "--out", str(target)
        )
        assert code == 2
        assert "x.json" in err

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
    src = str(Path(chebfrolov.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "chebfrolov.cli", "count", "--dim", "2", "--log2-scale", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 3
