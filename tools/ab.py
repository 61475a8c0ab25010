"""Per-call A/B timing of two builds of the walker, in one process.

Usage: ``python tools/ab.py [A] [B] [--rounds R] [--core C]``

A and B name the builds: a git revision, or ``-`` for the working tree.
A defaults to ``HEAD`` and B to the working tree.  Each build's
``src/chebfrolov/_walk.c`` is written to a temporary directory, compiled
with ``enumeration._build_command`` and loaded as the extension module
``a._walk`` or ``b._walk``; the init function is named after the last
component of the module name, so both load beside each other.  The
harness prints each compile's seconds and module size: a first run pays
for the build, so a change may buy its speed with a slower one.  Where
``nm`` is installed it also prints the offsets of ``walk``'s symbols in
each module (``nm -n``): an edit elsewhere in the file can move them, and
that alone can move the speed of counts and fills by a few percent.

The harness pins itself to one core (default 0), checks that both builds
return the same bytes on every case of a fixed grid (floats compared by
their bits, so a zero whose sign differs is a difference), then runs the
grid R times (default 21), alternating A and B, and prints for each case
the best and median time per call of each build and the ratios B / A.
Separate processes cannot resolve effects of a few percent: the speed of
a host swings more than that between processes.

The grid:

- ``count``: the standard box (half walk) and the same box with its last
  upper corner one ulp higher (full walk), at d = 8, 16 and 32;
- ``fill``: every fill of a standard box at the default fill size, at
  d = 2, 8, 16 and 32;
- ``stream``: boxes of a few points at d = 2, 8, 16 and 32, of about 100
  points at d = 2 and 4, and boxes just past one stream chunk (1024 / d
  points) at d = 8, 16 and 32;
- ``apply_generator`` at d = 8 and 64, ``map_nodes`` on the rows of a
  d = 8 standard box, and ``format_rows`` on them at 17 and 5 digits, the
  precisions of the ``points`` digests, and at 17 digits scaled by 2^1000,
  where every value falls back to ``snprintf``.

Both builds are called with the entry points of the working tree's
``enumeration`` module, so both revisions must take its signatures.
"""

from __future__ import annotations

import argparse
import importlib.machinery
import importlib.util
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from chebfrolov import CubatureSpec, LatticePoint, Level, build_diag_ladder, standard_box  # noqa: E402
from chebfrolov import enumeration  # noqa: E402

SOURCE = "src/chebfrolov/_walk.c"

#: Seconds one timed sample of a case takes at least: short calls repeat.
SAMPLE_S = 5e-3


def build(label: str, revision: str, workdir: Path):
    """Compile ``_walk.c`` of a revision (``-``: the working tree), print the
    compile's seconds and the module's size, and load it as ``<label>._walk``."""
    directory = workdir / label
    directory.mkdir()
    source = directory / "_walk.c"
    if revision == "-":
        source.write_bytes((ROOT / SOURCE).read_bytes())
    else:
        show = ["git", "-C", str(ROOT), "show", f"{revision}:{SOURCE}"]
        source.write_bytes(subprocess.run(show, check=True, capture_output=True).stdout)
    target = directory / f"_walk{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    start = time.perf_counter()
    proc = subprocess.run(enumeration._build_command(source, target), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"compiling {revision} failed:\n{proc.stderr}")
    seconds, size = time.perf_counter() - start, target.stat().st_size / 1024
    print(f"{label.upper()}: compiled in {seconds:.2f} s, {size:.1f} KB{walk_offsets(target)}")
    loader = importlib.machinery.ExtensionFileLoader(f"{label}._walk", str(target))
    spec = importlib.util.spec_from_file_location(loader.name, target, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def walk_offsets(module: Path) -> str:
    """``, walk.sse4_1 at 0x4a50, ...``: the offsets ``nm -n`` gives ``walk``'s
    symbols in the module, or nothing without ``nm``."""
    if shutil.which("nm") is None:
        return ""
    table = subprocess.run(["nm", "-n", str(module)], capture_output=True, text=True).stdout
    offsets = []
    for line in table.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in "tT" and fields[2].split(".")[0] == "walk":
            offsets.append(f", {fields[2]} at 0x{int(fields[0], 16):x}")
    return "".join(offsets)


def same(x, y) -> bool:
    """Whether two results of a case hold the same bytes: floats, alone or in
    lists, tuples and ``LatticePoint``s, compare by their bits, as ``0.0 ==
    -0.0`` would hide a flipped sign of zero."""
    return _bits(x) == _bits(y)


def _bits(value):
    if isinstance(value, float):
        return array("d", [value]).tobytes()
    if isinstance(value, LatticePoint):
        return value.k, array("d", value.x).tobytes()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


def standard(d: int, log2n: float):
    """Level, ladder and standard box of dimension d at scale 2**log2n."""
    level = Level.from_dimension(d)
    return level, build_diag_ladder(level), standard_box(CubatureSpec(level, 2.0**log2n))


def box_holding(walk, d: int, low: int, high: int):
    """Level, ladder and a symmetric box that holds between low and high
    points, its half-width found by bisection."""
    level = Level.from_dimension(d)
    ladder = build_diag_ladder(level)
    lo, hi = 0.0, 1.0
    while walk.count((-hi,) * d, (hi,) * d, ladder._flat, level.n) < low:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        count = walk.count((-mid,) * d, (mid,) * d, ladder._flat, level.n)
        if low <= count <= high:
            return level, ladder, (-mid,) * d, (mid,) * d
        lo, hi = (mid, hi) if count < low else (lo, mid)
    sys.exit(f"no symmetric box at d = {d} holds {low} to {high} points")


def cases(walk):
    """The grid: (name, call) pairs, each call taking a walker module and
    returning a value that both builds must agree on."""
    grid = []

    def add(name, call):
        grid.append((name, call))

    for d, log2n in ((8, 18), (16, 14), (32, 6)):
        level, ladder, box = standard(d, log2n)
        raised = box.upper[:-1] + (math.nextafter(box.upper[-1], math.inf),)
        for label, upper in (("half", box.upper), ("full", raised)):
            add(f"count {label} d={d} N=2^{log2n}",
                lambda w, b=box, u=upper, f=ladder._flat, n=level.n: w.count(b.lower, u, f, n))

    def fills(w, lower, upper, flat, n):
        state = w.state(lower, upper, flat, n, enumeration._FILL_ROWS)
        rows = []
        while True:
            K, X = w.fill(state)
            if not K:
                return rows
            rows.append((bytes(K), bytes(X)))

    for d, log2n in ((2, 16), (8, 14), (16, 10), (32, 4)):
        level, ladder, box = standard(d, log2n)
        add(f"fill d={d} N=2^{log2n}",
            lambda w, b=box, f=ladder._flat, n=level.n: fills(w, b.lower, b.upper, f, n))

    def stream(w, lower, upper, flat, n):
        seen = []
        w.stream(lower, upper, flat, n, LatticePoint, seen.append)
        return seen

    boxes = [(d, 3, 9, "few") for d in (2, 8, 16, 32)]
    boxes += [(d, 90, 110, "~100") for d in (2, 4)]
    boxes += [(d, 1024 // d + 1, 1024 // d + 1024 // d // 4, "past one chunk") for d in (8, 16, 32)]
    for d, low, high, label in boxes:
        level, ladder, lower, upper = box_holding(walk, d, low, high)
        points = walk.count(lower, upper, ladder._flat, level.n)
        add(f"stream {label} d={d} ({points} points)",
            lambda w, lo=lower, hi=upper, f=ladder._flat, n=level.n: stream(w, lo, hi, f, n))

    for d in (8, 64):
        level = Level.from_dimension(d)
        flat, vector = build_diag_ladder(level)._flat, [float(i % 7 - 3) for i in range(d)]
        add(f"apply_generator d={d}", lambda w, f=flat, v=vector, n=level.n: w.apply_generator(f, v, n))

    level, ladder, box = standard(8, 12)
    X = b"".join(x for _, x in fills(walk, box.lower, box.upper, ladder._flat, level.n))
    rows = len(X) // 64

    # the identity map, s = 1, v = 0, u = 1, in place: every call maps the images
    Y, v, u = array("d", X), array("d", [0.0] * 8), array("d", [1.0] * 8)
    add(f"map_nodes d=8 ({rows} rows)", lambda w: w.map_nodes(Y, 8, 1.0, v, u, math.inf))
    for digits in (17, 5):
        add(f"format_rows d=8 ({rows} rows, {digits} digits)",
            lambda w, p=digits: w.format_rows(X, 8, p))
    # past the exact digits' 2^127: snprintf writes every value
    far = array("d", [x * 2.0**1000 for x in array("d", X)])
    add(f"format_rows d=8 ({rows} rows, x 2^1000)", lambda w: w.format_rows(far, 8, 17))
    return grid


def sample(call, walk, reps: int) -> float:
    """Seconds per call of ``call(walk)``, over reps calls."""
    start = time.perf_counter()
    for _ in range(reps):
        call(walk)
    return (time.perf_counter() - start) / reps


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", nargs="?", default="HEAD", help="revision of build A (default HEAD)")
    parser.add_argument("b", nargs="?", default="-", help="revision of build B (default: the working tree)")
    parser.add_argument("--rounds", type=int, default=21, help="alternating rounds per case")
    parser.add_argument("--core", type=int, default=0, help="the core to pin to")
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {args.core})
    print(f"A = {args.a}, B = {'the working tree' if args.b == '-' else args.b}; "
          f"{args.rounds} alternating rounds on core {args.core}; times per call")
    with tempfile.TemporaryDirectory(prefix="chebfrolov-ab-") as tmp:
        a, b = build("a", args.a, Path(tmp)), build("b", args.b, Path(tmp))
    grid = cases(a)
    for name, call in grid:
        if not same(call(a), call(b)):
            sys.exit(f"the builds differ on {name}")
    print(f"{'case':<40} {'A best':>10} {'B best':>10} {'A median':>10} {'B median':>10}"
          f" {'B/A best':>9} {'B/A med':>8}")
    for name, call in grid:
        reps = max(1, math.ceil(SAMPLE_S / sample(call, a, 1)))
        times = {a: [], b: []}
        for r in range(args.rounds):
            for walk in (a, b) if r % 2 == 0 else (b, a):
                times[walk].append(sample(call, walk, reps))
        best = {w: min(t) for w, t in times.items()}
        median = {w: statistics.median(t) for w, t in times.items()}
        print(f"{name:<40} {_us(best[a]):>10} {_us(best[b]):>10} {_us(median[a]):>10}"
              f" {_us(median[b]):>10} {best[b] / best[a]:>9.3f} {median[b] / median[a]:>8.3f}")
    return 0


def _us(seconds: float) -> str:
    return f"{seconds * 1e6:.1f} us" if seconds < 1e-3 else f"{seconds * 1e3:.2f} ms"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
