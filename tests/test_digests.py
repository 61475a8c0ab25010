"""Byte identity of the package's outputs against committed SHA-256 digests.

Each digest covers one output: a count, the k and x bytes of a stream in
order, the batches of ``enumerate_batches`` at one size (their shapes and
bytes), ``apply_generator`` and ``randomized_box`` vectors, or the output
of one CLI command with its ``seconds`` field dropped.  A refactor that
keeps every output byte passes unchanged; a change that moves one byte
fails here with the names of the outputs it moved.

The walker cases run on the ladder stored in ``digests.json`` as
``float.hex``, so they do not depend on the host's libm.  The CLI builds
its own ladder (``math.cos``) and the ``cospi`` integrand calls libm too,
so :func:`check_ladder` compares ``build_diag_ladder`` with the stored
ladder first: a libm that rounds differently fails with its own message.

Regenerate the data file, after a change that is meant to move bytes,
with ``PYTHONPATH=src python tests/test_digests.py``; name each changed
digest and its reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from array import array
from pathlib import Path

import pytest

from chebfrolov import (
    Box,
    CubatureSpec,
    DiagLadder,
    Level,
    apply_generator,
    build_diag_ladder,
    count_points,
    enumerate_batches,
    enumerate_stream,
    randomized_box,
    sample_shift,
    standard_box,
)
from chebfrolov.cli import main

DATA = Path(__file__).with_name("digests.json")

#: Scales of the standard and randomized boxes per level n (d = 2**n): up to
#: about 4,000 standard points each; at d = 64 a box of half-width 2.4,
#: which holds 131.
SCALES = {0: 2.0**10, 1: 2.0**10, 2: 2.0**10, 3: 2.0**9, 4: 2.0**8, 5: 2.0**2, 6: 2.0**-80}

#: The kinds of box of every level (see :func:`boxes`).
KINDS = ("standard", "randomized", "face", "seeded")

#: Batch sizes hashed for every box.
SIZES = (1, 7, 1024)

#: CLI runs, each with its output written to a file through ``--out``.
CLI_RUNS = {
    "count": ["count", "--dim", "16", "--log2-scale", "10"],
    "count_box": ["count", "--dim", "2", "--box", "-3.5", "-2", "40", "7.25"],
    "points_csv17": ["points", "--dim", "8", "--log2-scale", "8", "--header"],
    "points_csv5": ["points", "--dim", "4", "--log2-scale", "9", "--precision", "5"],
    "points_jsonl": ["points", "--dim", "8", "--log2-scale", "7", "--format", "jsonl"],
    "points_box64": ["points", "--dim", "64", "--box", *["-1.5"] * 64, *["1.5"] * 64],
    "integrate": ["integrate", "--dim", "4", "--log2-scale", "10"],
    "integrate_one": ["integrate", "--dim", "2", "--log2-scale", "12", "--integrand", "one"],
    "integrate_random": ["integrate-random", "--dim", "4", "--log2-scale", "9", "--seed", "3"],
    "integrate_random8": ["integrate-random", "--dim", "8", "--log2-scale", "8", "--seed", "11",
                          "--integrand", "coord1"],
    "verify": ["verify", "--max-dim", "8", "--max-log2-scale", "10"],
    "table": ["table"],
}


def stored():
    return json.loads(DATA.read_text())


def stored_ladder():
    """The ladder of level 6 from the data file, its values from ``float.hex``."""
    flat = [float.fromhex(v) for v in stored()["ladder"]]
    return DiagLadder([flat[(1 << L) - 1 : (2 << L) - 1] for L in range(6)])


def check_ladder():
    built = [v.hex() for diag in build_diag_ladder(Level(6)).levels for v in diag]
    expected = stored()["ladder"]
    moved = [i for i, (a, b) in enumerate(zip(built, expected)) if a != b]
    assert built == expected, (
        f"build_diag_ladder differs from the stored ladder at flat indices {moved[:8]}:"
        " this host's libm rounds cos differently, so the CLI digests cannot match"
    )


def digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def boxes(level, ladder):
    """The standard, randomized, face and seeded boxes of one level."""
    d, n = level.d, level.n
    rng = random.Random(1000 + n)
    spec = CubatureSpec(level, SCALES[n])
    faces, seeded = [], []
    for _ in range(3):
        x = apply_generator(ladder, [rng.randint(-5, 5) for _ in range(d)])
        x1 = [v + 1.0 for v in x]
        xm = [v - 1.0 for v in x]
        faces += [Box(x, x), Box(x, x1), Box(xm, x)]
        below = [rng.uniform(0.0, 2.5) for _ in range(d)]
        above = [rng.uniform(0.0, 2.5) for _ in range(d)]
        seeded.append(Box([v - b for v, b in zip(x, below)], [v + a for v, a in zip(x, above)]))
    return {
        "standard": [standard_box(spec)],
        "randomized": [randomized_box(spec, sample_shift(seed, d), ladder)[0] for seed in (1, 2)],
        "face": faces,
        "seeded": seeded,
    }


def walk_digests(n):
    """Count, stream and batch digests of every box of level n."""
    level, ladder = Level(n), stored_ladder()
    out = {}
    for kind, group in boxes(level, ladder).items():
        name = f"d{level.d}.{kind}"
        out[f"{name}.count"] = digest(str(count_points(level, b, ladder)).encode() for b in group)
        chunks = []
        for box in group:
            points = []
            enumerate_stream(level, box, ladder, points.append)
            chunks += [array("q", p.k).tobytes() + array("d", p.x).tobytes() for p in points]
            chunks.append(b"|")
        out[f"{name}.stream"] = digest(chunks)
        for size in SIZES:
            chunks = []
            for box in group:
                for K, X in enumerate_batches(level, box, ladder, size):
                    chunks += [repr(K.shape).encode(), K.tobytes(), X.tobytes()]
                chunks.append(b"|")
            out[f"{name}.batches{size}"] = digest(chunks)
    return out


def vector_digests():
    """``apply_generator`` on integer and real vectors, and ``randomized_box``'s
    corners and shift vector, at every level."""
    ladder = stored_ladder()
    out = {}
    for n in range(7):
        level = Level(n)
        d = level.d
        rng = random.Random(2000 + n)
        ints = [[rng.randint(-10**6, 10**6) for _ in range(d)] for _ in range(20)]
        reals = [[rng.uniform(-1e3, 1e3) for _ in range(d)] for _ in range(20)]
        out[f"d{d}.apply_generator"] = digest(
            array("d", apply_generator(ladder, v)).tobytes() for v in ints + reals
        )
        chunks = []
        for seed in range(5):
            for log2 in (-3, 0, 6):
                box, shift_vector = randomized_box(
                    CubatureSpec(level, 2.0**log2), sample_shift(seed, d), ladder
                )
                chunks += [array("d", v).tobytes() for v in (box.lower, box.upper, shift_vector)]
        out[f"d{d}.randomized_box"] = digest(chunks)
    return out


def cli_output(argv, path):
    """The bytes one CLI run writes, each JSON line without its ``seconds``."""
    assert main([*argv, "--out", str(path)]) == 0
    lines = []
    for line in path.read_bytes().splitlines(keepends=True):
        if line.startswith(b"{") and b'"seconds"' in line:
            record = json.loads(line)
            del record["seconds"]
            line = json.dumps(record).encode() + b"\n"
        lines.append(line)
    return b"".join(lines)


def cli_digests(tmp):
    return {f"cli.{name}": digest([cli_output(argv, tmp / name)]) for name, argv in CLI_RUNS.items()}


def assert_digests(actual):
    expected = stored()["digests"]
    moved = sorted(name for name in actual if actual[name] != expected.get(name))
    assert not moved, f"outputs whose bytes changed: {moved}"


def test_ladder_matches_the_stored_ladder():
    check_ladder()


@pytest.mark.parametrize("n", range(7))
def test_walks_keep_their_bytes(n):
    assert_digests(walk_digests(n))


def test_vectors_keep_their_bytes():
    assert_digests(vector_digests())


def test_cli_keeps_its_bytes(tmp_path):
    check_ladder()
    assert_digests(cli_digests(tmp_path))


def test_every_digest_is_checked(tmp_path):
    # the data file holds no digest that no test computes
    names = {f"cli.{name}" for name in CLI_RUNS}
    views = ("count", "stream", *(f"batches{size}" for size in SIZES))
    for d in (1 << n for n in range(7)):
        names |= {f"d{d}.apply_generator", f"d{d}.randomized_box"}
        names |= {f"d{d}.{kind}.{view}" for kind in KINDS for view in views}
    assert names == set(stored()["digests"])


if __name__ == "__main__":
    import tempfile

    ladder = [v.hex() for diag in build_diag_ladder(Level(6)).levels for v in diag]
    DATA.write_text(json.dumps({"ladder": ladder, "digests": {}}) + "\n")
    digests = vector_digests()
    for n in range(7):
        digests.update(walk_digests(n))
    with tempfile.TemporaryDirectory() as tmp:
        digests.update(cli_digests(Path(tmp)))
    DATA.write_text(json.dumps({"ladder": ladder, "digests": digests}, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DATA}", file=sys.stderr)
