"""The four benchmark workloads: cubature, count, boxes and cli.

A workload runs in rounds.  A round is a fixed mix of operations, and the
harness runs whole rounds until its time is spent, so each operation kind
keeps the same share of every run.  Each operation is timed on its own and
its output is checked; the checking is not timed.  Times are kept in
reference seconds (see ``clock``).  Every input (shift,
box, lattice vector, CLI seed) is drawn from the run's seeded generator.

The benchmark calls the package only through names the roadmap keeps
(no ``threads=``, ``EnumState``, ``split_k1_ranges``, ``interval_mean`` or
``clamp_bounds``), looked up at call time so the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import chebfrolov as cf
from clock import Clock

def node_count(result) -> int:
    return result.node_count


def cospi(x) -> float:
    """prod_i cos(pi x_i); its integral over [-1/2, 1/2]^d is (2/pi)^d."""
    return math.prod(math.cos(math.pi * c) for c in x)


def cospi_exact(d: int) -> float:
    return (2.0 / math.pi) ** d


def close(value: float, reference: float, rel: float) -> bool:
    return abs(value - reference) <= rel * abs(reference)


class Tally:
    """Operations attempted and failed; ``errors`` holds the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, status, what: str) -> None:
        self.attempted += 1
        if status is True:
            return
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what if status is False else f"{what}: {status}")


class Workload:
    """Shared bookkeeping: levels, ladders, per-kind op times and work done."""

    name = ""
    dims: tuple[int, ...] = ()
    work_unit = ""

    def __init__(self, rng, tally: Tally, tracer=None) -> None:
        self.rng = rng
        self.tally = tally
        self.tracer = tracer
        self.levels = {d: cf.Level.from_dimension(d) for d in self.dims}
        self.ladders = {d: cf.build_diag_ladder(lv) for d, lv in self.levels.items()}
        self.clock = Clock()
        self.times = self.clock.times

    def attempt(self, what: str, op) -> None:
        """Run one checked operation; an exception counts as a failure, not an abort."""
        try:
            status = op()
        except Exception as exc:  # noqa: BLE001 - a failed operation, recorded and counted
            status = repr(exc)
        self.tally.record(status, what)

    def timed(self, kind: str, units, fn, *args):
        """Time ``fn(*args)`` as one operation worth ``units(result)`` units of work."""
        start = perf_counter()
        result = fn(*args)
        self.clock.add(kind, start, perf_counter(), units(result))
        return result

    @contextlib.contextmanager
    def checking(self):
        """Checker work: never traced."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def busy_s(self) -> float:
        """Reference seconds spent in timed operations."""
        return sum(sum(v) for v in self.times.values())

    def work(self) -> float:
        return sum(self.clock.units.values())

    def work_per_s(self, seconds: dict[str, float] | None = None) -> float:
        """Geometric mean over operation kinds of each kind's work per second.

        Every kind weighs the same whatever its share of the run, so the
        figure does not move with the seeded mix (say, how many nodes the
        random shifts happen to give).  ``seconds`` maps kinds to total
        time; by default the reference seconds.
        """
        if seconds is None:
            seconds = {k: sum(v) for k, v in self.times.items()}
        units = self.clock.units
        return math.exp(statistics.fmean(math.log(units[k] / s) for k, s in seconds.items()))

    def latency_ms(self) -> dict:
        """Per kind: samples, median and the highest of p99.9/p99/p90 with ten samples beyond it."""
        out = {}
        for kind, samples in sorted(self.times.items()):
            summary = {"n": len(samples), "median": statistics.median(samples) * 1e3}
            for q in (99.9, 99.0, 90.0):
                if len(samples) * (1.0 - q / 100.0) >= 10:
                    summary[f"p{q:g}"] = float(np.percentile(samples, q)) * 1e3
                    break
            out[kind] = summary
        return out

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def face_miss_ratio(self) -> float:
        """Share of face-box probes whose lattice point was not emitted (``boxes`` only)."""
        return 0.0

    def trace_targets(self) -> tuple:
        """Benchmark-side callables the traced run wraps, as (owner, key, span)."""
        return ()

    def info(self) -> dict:
        """Workload figures under the names the issue tracker uses, with units."""
        return {}

    def close(self) -> None:
        pass


class Cubature(Workload):
    """integrate of cospi, deterministic and randomized rules."""

    name = "cubature"
    dims = (2, 8)
    work_unit = "integrand nodes"
    DETERMINISTIC = ((2, 18), (8, 14))
    RANDOMIZED = ((2, 16), (8, 14))
    SHIFTS_PER_ROUND = 3
    #: Relative slack between integrate and the benchmark's own numpy sum
    #: over the same nodes (summation order differs; float64 throughout).
    VALUE_RTOL = 1e-9

    def __init__(self, rng, tally, tracer=None) -> None:
        super().__init__(rng, tally, tracer)
        self.f = cospi
        self.specs = {
            (d, m): cf.CubatureSpec(self.levels[d], float(2**m))
            for d, m in self.DETERMINISTIC + self.RANDOMIZED
        }
        self.expected: dict[tuple[int, int], tuple[float, int]] = {}
        self.value_checked: set[tuple[int, int]] = set()
        self.abs_err: dict[str, list[float]] = defaultdict(list)

    def trace_targets(self) -> tuple:
        return ((self, "f", "cubature.integrand"),)

    def round(self) -> None:
        for d, m in self.DETERMINISTIC:
            self.attempt(f"integrate d={d} N=2^{m}", lambda: self._deterministic(d, m))
        for d, m in self.RANDOMIZED:
            for _ in range(self.SHIFTS_PER_ROUND):
                seed = self.rng.getrandbits(32)
                self.attempt(
                    f"integrate d={d} N=2^{m} shift seed {seed}",
                    lambda: self._randomized(d, m, seed),
                )

    def _deterministic(self, d: int, m: int):
        spec = self.specs[d, m]
        ladder = self.ladders[d]
        result = self.timed(f"deterministic d={d} N=2^{m}", node_count, cf.integrate, spec, self.f, ladder)
        with self.checking():
            if (d, m) not in self.expected:
                value, nodes = reference_integral(spec, ladder, None)
                counted = cf.count_points(spec.level, cf.standard_box(spec), ladder)
                if nodes != counted:
                    return f"stream gave {nodes} nodes, count_points {counted}"
                self.expected[d, m] = (value, counted)
            value, nodes = self.expected[d, m]
        self.abs_err[f"deterministic d={d} N=2^{m}"].append(abs(result.value - cospi_exact(d)))
        return result.node_count == nodes and close(result.value, value, self.VALUE_RTOL)

    def _randomized(self, d: int, m: int, seed: int):
        spec = self.specs[d, m]
        ladder = self.ladders[d]
        shift = cf.sample_shift(seed, d)
        result = self.timed(f"randomized d={d} N=2^{m}", node_count, cf.integrate, spec, self.f, ladder, shift)
        with self.checking():
            box, _ = cf.randomized_box(spec, shift, ladder)
            counted = cf.count_points(spec.level, box, ladder)
            ok = result.node_count == counted
            if (d, m) not in self.value_checked:
                # the value is recomputed independently for the first shift of each case
                self.value_checked.add((d, m))
                value, nodes = reference_integral(spec, ladder, shift)
                ok = ok and nodes == counted and close(result.value, value, self.VALUE_RTOL)
        self.abs_err[f"randomized d={d} N=2^{m}"].append(abs(result.value - cospi_exact(d)))
        return ok

    def info(self) -> dict:
        return {
            "integrate_nodes_per_s": {"value": self.work() / self.busy_s(), "unit": "1/s"},
            "integrate_abs_err": {
                case: {"value": statistics.fmean(errs), "unit": "abs", "runs": len(errs)}
                for case, errs in sorted(self.abs_err.items())
            },
        }


def reference_integral(spec, ladder, shift) -> tuple[float, int]:
    """The rule's value recomputed by the benchmark: stream the box, map and sum in numpy."""
    level = spec.level
    if shift is None:
        box = cf.standard_box(spec)
        offset = 0.0
        scale = spec.shrink
        weight = spec.weight
    else:
        box, shift_vector = cf.randomized_box(spec, shift, ladder)
        offset = np.asarray(shift_vector)
        scale = spec.shrink / np.asarray(shift.u)
        weight = spec.weight / math.prod(shift.u)
    total = 0.0
    count = 0
    buf: list[tuple[float, ...]] = []

    def flush() -> None:
        nonlocal total, count
        nodes = (np.asarray(buf) + offset) * scale
        total += float(np.prod(np.cos(np.pi * nodes), axis=1).sum())
        count += len(buf)
        buf.clear()

    def consume(point) -> None:
        buf.append(point.x)
        if len(buf) == 4096:
            flush()

    cf.enumerate_stream(level, box, ladder, consume)
    if buf:
        flush()
    return weight * total, count


class Count(Workload):
    """count_points on standard boxes, each checked against its golden row."""

    name = "count"
    dims = (8, 16, 32)
    work_unit = "points counted"
    CASES = ((8, 18), (16, 16), (32, 6))

    def __init__(self, rng, tally, tracer=None) -> None:
        super().__init__(rng, tally, tracer)
        golden = {(r.d, r.log2n): r.count for r in cf.load_golden_table()}
        self.golden = {case: golden[case] for case in self.CASES}
        self.boxes = {
            (d, m): cf.standard_box(cf.CubatureSpec(self.levels[d], float(2**m)))
            for d, m in self.CASES
        }

    def round(self) -> None:
        order = list(self.CASES)
        self.rng.shuffle(order)
        for d, m in order:
            self.attempt(f"count d={d} N=2^{m}", lambda: self._count(d, m))

    def _count(self, d: int, m: int):
        n = self.timed(f"d={d} N=2^{m}", int, cf.count_points, self.levels[d], self.boxes[d, m], self.ladders[d])
        return n == self.golden[d, m] or f"counted {n}, golden row says {self.golden[d, m]}"

    def info(self) -> dict:
        per_case = {}
        for d, m in self.CASES:
            times = self.times[f"d={d} N=2^{m}"]
            per_case[f"d={d} N=2^{m}"] = {
                "value": self.golden[d, m] / statistics.median(times),
                "unit": "1/s",
                "median_s": statistics.median(times),
                "runs": len(times),
            }
        return {
            "count_pts_per_s": {"value": self.work() / self.busy_s(), "unit": "1/s"},
            "count_pts_per_s_by_case": per_case,
        }


class Boxes(Workload):
    """Many small box queries, plus the face-box probe of the closed-box contract."""

    name = "boxes"
    dims = (2, 4, 8, 16)
    work_unit = "box queries"
    #: Random boxes per round and the expected number of lattice points in
    #: each; d=16 boxes are smaller because the search tree makes them ~10x
    #: dearer per point.
    RANDOM_PER_ROUND = {2: 24, 4: 24, 8: 12, 16: 3}
    EXPECTED_POINTS = {2: 4.0, 4: 4.0, 8: 4.0, 16: 1.0}
    #: Lattice vectors k per dimension and round; each gives the boxes
    #: [Gk, Gk] and [Gk, Gk + 1], whose faces hold Gk.
    FACES_PER_ROUND = 4
    FACE_K_RANGE = 16
    #: The brute-force oracle cross-checks the random boxes up to this d.
    ORACLE_MAX_DIM = 4

    def __init__(self, rng, tally, tracer=None) -> None:
        super().__init__(rng, tally, tracer)
        self.dets = {d: cf.det_magnitude(lv) for d, lv in self.levels.items()}
        self.stream_s = 0.0
        self.streamed = 0
        self.face = {(d, kind): [0, 0] for d in self.dims for kind in ("[Gk,Gk]", "[Gk,Gk+1]")}

    def round(self) -> None:
        for d in self.dims:
            for _ in range(self.RANDOM_PER_ROUND[d]):
                box = self._random_box(d)
                self.attempt(f"random box d={d}", lambda: self._random_query(d, box))
            for _ in range(self.FACES_PER_ROUND):
                k = tuple(self.rng.randint(-self.FACE_K_RANGE, self.FACE_K_RANGE) for _ in range(d))
                self._face_queries(d, k)

    def _random_box(self, d: int):
        """Off-centre box with random aspect ratios and the expected point count."""
        rng = self.rng
        log_side = math.log(self.EXPECTED_POINTS[d] * self.dets[d]) / d
        skew = [rng.uniform(-0.35, 0.35) for _ in range(d)]
        mean_skew = sum(skew) / d
        lower, upper = [], []
        for s in skew:
            half = 0.5 * math.exp(log_side + s - mean_skew)
            centre = rng.uniform(-50.0, 50.0)
            lower.append(centre - half)
            upper.append(centre + half)
        return cf.Box(tuple(lower), tuple(upper))

    def _query(self, kind: str, d: int, box, start: float | None = None):
        """count_points then enumerate_stream on one box, timed as one query from ``start``."""
        level, ladder = self.levels[d], self.ladders[d]
        points: list = []
        if start is None:
            start = perf_counter()
        n = cf.count_points(level, box, ladder)
        mid = perf_counter()
        emitted = cf.enumerate_stream(level, box, ladder, points.append)
        end = perf_counter()
        self.clock.add(kind, start, end)
        self.stream_s += end - mid
        self.streamed += emitted
        return n, emitted, points

    def _random_query(self, d: int, box):
        n, emitted, points = self._query(f"random d={d}", d, box)
        if not n == emitted == len(points):
            return f"count_points {n}, stream {emitted}, consumer saw {len(points)} in {box}"
        if d <= self.ORACLE_MAX_DIM:
            expected = [p.k for p in cf.oracle_enumerate(self.levels[d], box)]
            if expected != [p.k for p in points]:
                return f"stream and oracle disagree ({len(points)} vs {len(expected)} points) in {box}"
        return True

    def _face_queries(self, d: int, k: tuple[int, ...]) -> None:
        # the first face query's time includes computing Gk
        start = perf_counter()
        x = cf.apply_generator(self.ladders[d], k)
        faces = (
            ("[Gk,Gk]", cf.Box(x, x), start),
            ("[Gk,Gk+1]", cf.Box(x, tuple(v + 1.0 for v in x)), None),
        )
        for kind, box, begin in faces:
            self.attempt(f"face box {kind} d={d}", lambda: self._face_query(d, k, kind, box, begin))

    def _face_query(self, d, k, kind, box, start):
        n, emitted, points = self._query(f"face d={d}", d, box, start)
        if not n == emitted == len(points):
            return f"count_points {n}, stream {emitted}, consumer saw {len(points)} for k={k}"
        tally = self.face[d, kind]
        tally[1] += 1
        if not any(p.k == k for p in points):
            tally[0] += 1
        return True

    def face_miss_ratio(self) -> float:
        misses, total = map(sum, zip(*self.face.values()))
        return misses / total if total else 0.0

    def info(self) -> dict:
        queries = [t for kind, v in self.times.items() for t in v]
        return {
            "box_queries_per_s": {"value": self.work() / self.busy_s(), "unit": "1/s"},
            "box_query_p99_us": {"value": float(np.percentile(queries, 99)) * 1e6, "unit": "us", "n": len(queries)},
            "stream_pts_per_s": {"value": self.streamed / self.stream_s, "unit": "1/s", "clock": "wall"},
            "face_misses": {
                f"d={d} {kind}": f"{miss}/{total}" for (d, kind), (miss, total) in self.face.items()
            },
        }


class Cli(Workload):
    """The four CLI commands, one subprocess at a time (in-process when traced).

    Each subprocess is ``python -m chebfrolov.cli`` run through
    ``cli_child.py``, which samples the host's speed inside the command.
    """

    name = "cli"
    dims = (8, 16)
    work_unit = "CLI commands"
    #: Relative slack between the CLI's printed integral and the in-process one.
    VALUE_RTOL = 1e-12
    TIMEOUT_S = 150

    def __init__(self, rng, tally, tracer=None) -> None:
        super().__init__(rng, tally, tracer)
        self.root = Path(__file__).resolve().parent.parent
        self.tmp = self.root / ".bench_tmp"
        self.tmp.mkdir(exist_ok=True)
        self.out_file = self.tmp / f"points-{os.getpid()}.csv"
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        golden = {(r.d, r.log2n): r.count for r in cf.load_golden_table()}
        self.count_golden = golden[16, 14]
        self.points_golden = golden[8, 14]
        self.bytes_out = 0
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.in_process = tracer is not None
        if self.in_process:
            import chebfrolov.cli as cli_module

            self.cli = cli_module

    def trace_targets(self) -> tuple:
        return ((self.cli.INTEGRANDS, "cospi", "cubature.integrand"),)

    def round(self) -> None:
        seed = self.rng.getrandbits(31)
        commands = (
            ("count", ["count", "--dim", "16", "--log2-scale", "14"], self._check_count),
            ("points", ["points", "--dim", "8", "--log2-scale", "14", "--out", str(self.out_file)], self._check_points),
            ("integrate", ["integrate-random", "--dim", "8", "--log2-scale", "12", "--seed", str(seed)],
             lambda code, out: self._check_integrate(code, out, seed)),
            ("verify", ["verify", "--max-dim", "16", "--max-log2-scale", "12"], self._check_verify),
        )
        for kind, argv, check in commands:
            self.attempt(f"cli {' '.join(argv)}", lambda: check(*self._run(kind, argv)))

    def _run(self, kind: str, argv: list[str]) -> tuple[int, str]:
        samples = []  # the child's own speed samples
        if self.in_process:
            buf = io.StringIO()
            start = perf_counter()
            with contextlib.redirect_stdout(buf):
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            end = perf_counter()
            out = buf.getvalue()
        else:
            self.clock.pause()
            try:
                start = perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve().with_name("cli_child.py")), *argv],
                    cwd=self.root, env=self.env, capture_output=True, text=True, timeout=self.TIMEOUT_S,
                )
                end = perf_counter()
                samples = child_samples(proc.stderr)
            finally:
                self.clock.resume(samples)
            code, out = proc.returncode, proc.stdout
        # wall time without the child's own sampling
        self.wall[kind].append(end - start - sum(s[1] - s[0] for s in samples))
        self.clock.add(kind, start, end)
        return code, out

    def _check_count(self, code: int, out: str):
        if code != 0:
            return f"exit code {code}"
        count = json.loads(out.strip().splitlines()[-1])["count"]
        return count == self.count_golden or f"count {count}, golden row says {self.count_golden}"

    def _check_points(self, code: int, out: str):
        if code != 0:
            return f"exit code {code}"
        data = self.out_file.read_bytes()
        self.out_file.unlink()
        self.bytes_out += len(data)
        lines = data.count(b"\n")
        return lines == self.points_golden or f"{lines} lines, golden row says {self.points_golden}"

    def _check_integrate(self, code: int, out: str, seed: int):
        if code != 0:
            return f"exit code {code}"
        printed = json.loads(out.strip().splitlines()[-1])
        with self.checking():
            spec = cf.CubatureSpec(self.levels[8], 4096.0)
            expected = cf.integrate(spec, cospi, self.ladders[8], cf.sample_shift(seed, 8))
        return (
            printed["nodeCount"] == expected.node_count
            and close(printed["value"], expected.value, self.VALUE_RTOL)
        ) or f"printed {printed}, in-process {expected}"

    def _check_verify(self, code: int, out: str):
        return code == 0 or f"exit code {code}: {out.strip().splitlines()[-1:]}"

    def peak_rss_mb(self) -> float:
        if self.in_process:
            return super().peak_rss_mb()
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def info(self) -> dict:
        named = {
            f"cli.{kind}_s": {"value": statistics.median(v), "unit": "s", "clock": "wall", "runs": len(v)}
            for kind, v in self.wall.items()
        }
        named["cli.points_bytes"] = {"value": self.bytes_out / max(len(self.times["points"]), 1), "unit": "bytes"}
        return named

    def close(self) -> None:
        self.out_file.unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            self.tmp.rmdir()


def child_samples(stderr: str) -> list:
    """The speed samples ``cli_child.py`` wrote as the last line of its standard error."""
    lines = stderr.rstrip().splitlines()
    if lines and lines[-1].startswith("SAMPLES "):
        return json.loads(lines[-1][len("SAMPLES "):])
    return []


WORKLOADS = {w.name: w for w in (Cubature, Count, Boxes, Cli)}
