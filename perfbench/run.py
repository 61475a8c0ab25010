"""chebfrolov benchmark: one command, four workloads, a traced per-layer split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {cubature,count,boxes,cli} \\
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the same checkout (pure Python,
nothing to build).  The load is a closed loop: one caller in one process,
each call starting after the previous one returns; CLI commands run as one
subprocess at a time.  The workload runs whole rounds until ``--seconds``
have passed, and every output is checked.

The last line of standard output is the result, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the ``end_to_end`` list of BENCHMARK.json, measured with
tracing off; with ``--trace 1`` they are the ``per_layer`` list.  The line
before it, ``{"info": ...}``, records the run environment and the
workload's figures under the names the issue tracker uses (for example
``integrate_nodes_per_s`` or ``cli.verify_s``), with units.

``failed`` counts every operation whose output was wrong or that raised,
and ``correct`` is false when there is any.  Misses of the face-box probe
in ``boxes`` (a lattice point Gk on the face of a closed box [Gk, Gk] or
[Gk, Gk + 1] that the enumerator does not emit; a known defect of the
default ``boundary_eps=0``) are not failed operations: they are reported
as ``face_miss_ratio`` in the info record, per dimension and box kind
beside it, and as the per-layer ``enumeration.face_miss_ratio``.

Exit codes: 0 with a result line; 2 without one, when the checkout has no
``src/chebfrolov`` package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cubature", "count", "boxes", "cli")

#: Fresh interpreters started to measure setup_s; the median is reported.
SETUP_REPEATS = 15

#: Code a fresh interpreter runs to time set-up: import plus the ladders of
#: the workload (argv[4:]), and for ``cli`` the CLI module.  It prints the
#: interpreter's CPU time in reference seconds, calibrated in the same
#: interpreter.  CPU time, not wall time: on this shared host the wall time
#: of a 0.1 s import swings by 2x with scheduling, the CPU time by a few
#: percent.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from clock import NOMINAL_S, calibration_s
before = calibration_s(time.process_time)
start = time.process_time()
sys.path.insert(0, sys.argv[2])
import chebfrolov
for d in sys.argv[4:]:
    chebfrolov.build_diag_ladder(chebfrolov.Level.from_dimension(int(d)))
if sys.argv[3] == "cli":
    import chebfrolov.cli
elapsed = time.process_time() - start
print(elapsed * NOMINAL_S / ((before + calibration_s(time.process_time)) / 2.0))
"""


def fresh_setup_s(workload: str, dims=()) -> float:
    """Median set-up time over SETUP_REPEATS fresh interpreters, after one warm-up.

    For workload "cli" with no dims this is a bare ``import chebfrolov.cli``.
    """
    argv = [sys.executable, "-c", SETUP_CODE, str(BENCH), str(SRC), workload, *map(str, dims)]
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout.strip()))
    return statistics.median(samples[1:])


def environment(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def run_rounds(workload, seconds: float) -> tuple[int, float]:
    """Whole rounds until ``seconds`` have passed; returns (rounds, wall seconds)."""
    rounds = 0
    start = perf_counter()
    workload.clock.start()
    try:
        while True:
            workload.round()
            rounds += 1
            elapsed = perf_counter() - start
            if elapsed >= seconds:
                return rounds, elapsed
    finally:
        workload.clock.stop()


def qmc_references(seed: int, cases) -> object:
    """Sobol and Halton errors at the cubature cases, from a separate interpreter.

    scipy is imported there so that it adds nothing to this process's memory.
    """
    argv = [sys.executable, str(BENCH / "qmc_ref.py"), "--seed", str(seed)]
    for d, m in cases:
        argv += ["--case", f"{d}:{m}"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return {"error": proc.stderr.strip().splitlines()[-1:]}
    return json.loads(proc.stdout)


def end_to_end(workload, tally, args, info) -> dict:
    setup_s = fresh_setup_s(workload.name, workload.dims)
    rounds, wall = run_rounds(workload, args.seconds)
    busy = workload.busy_s()
    metrics = {
        "setup_s": setup_s,
        "work_per_s": workload.work_per_s(),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    info["run"] = {
        "rounds": rounds,
        "wall_s": wall,
        "busy_reference_s": busy,
        "busy_raw_s": sum(workload.clock.raw_s.values()),
        "host_speed": workload.clock.speed(),
        "work": workload.work(),
        "work_unit": workload.work_unit,
        "raw_work_per_s": workload.work_per_s(workload.clock.raw_s),
    }
    info["named"] = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": metrics["peak_rss_mb"], "unit": "MB"},
        "fail_ratio": {"value": tally.failed / tally.attempted, "unit": "ratio"},
        "face_miss_ratio": {"value": workload.face_miss_ratio(), "unit": "ratio"},
        **workload.info(),
    }
    info["op_latency_ms"] = workload.latency_ms()
    if workload.name == "cubature":
        cases = dict.fromkeys(workload.DETERMINISTIC + workload.RANDOMIZED)
        info["qmc_reference_abs_err"] = qmc_references(args.seed, cases)
    return metrics


def per_layer(workload, tracer, args, info) -> dict:
    import chebfrolov as cf

    # ladder build for the workload's dimensions (what setup_s pays for)
    samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        for d in workload.dims:
            cf.build_diag_ladder(cf.Level.from_dimension(d))
        samples.append(perf_counter() - start)
    ladder_s = statistics.median(samples)

    # per-call enumeration setup: a box that is empty in the outermost
    # coordinate pays for the state and schedules, then stops
    setup_us = []
    for d in workload.dims:
        level, ladder = workload.levels[d], workload.ladders[d]
        empty = cf.Box((0.3,) * d, (0.6,) * d)
        calls = []
        for _ in range(200):
            start = perf_counter()
            n = cf.count_points(level, empty, ladder)
            calls.append(perf_counter() - start)
        workload.tally.record(n == 0 or f"{n} points", f"empty box d={d}")
        setup_us.append(statistics.median(calls) * 1e6)

    cli_startup_s = fresh_setup_s("cli") if workload.name == "cli" else 0.0

    # half the time untraced, half traced: the difference in timed work per
    # round is the tracing overhead
    plain_rounds, _ = run_rounds(workload, args.seconds / 2)
    plain_busy = workload.busy_s()
    bytes_before = getattr(workload, "bytes_out", 0)
    tracer.install(workload.trace_targets())
    try:
        traced_rounds, _ = run_rounds(workload, args.seconds / 2)
    finally:
        tracer.uninstall()
    untraced_round_s = plain_busy / plain_rounds
    # span times are wall seconds; scale them to reference seconds like the rest
    speed = workload.clock.speed()
    spans = {
        name: value * speed if name.endswith(("_s", "_ns_per_point")) else value
        for name, value in tracer.layer_metrics(traced_rounds).items()
    }
    metrics = {
        "lattice.build_diag_ladder_s": ladder_s * speed,
        "enumeration.setup_us": statistics.fmean(setup_us) * speed,
        "enumeration.face_miss_ratio": workload.face_miss_ratio(),
        **spans,
        "cli.startup_s": cli_startup_s,
        "cli.bytes_out": (getattr(workload, "bytes_out", 0) - bytes_before) / traced_rounds,
        "trace.untraced_round_s": untraced_round_s,
        "trace.overhead_s": (workload.busy_s() - plain_busy) / traced_rounds - untraced_round_s,
    }
    info["run"] = {"untraced_rounds": plain_rounds, "traced_rounds": traced_rounds}
    info["absent"] = tracer.absent
    info["spans"] = tracer.table()
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "chebfrolov"
    if not (package / "__init__.py").is_file():
        print(f"error: no package to measure at {package}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # numpy's BLAS thread pool does no work for chebfrolov, but on a 2-core
    # host its threads spin while a fresh interpreter imports numpy and
    # compete with the measured main thread (a CLI command then spends ~30 %
    # more CPU than wall time): one BLAS thread, here and in every child.
    # A fixed hash seed keeps dict and set layouts the same from one CLI or
    # set-up process to the next.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["PYTHONHASHSEED"] = "0"
    sys.path.insert(0, str(SRC))
    import chebfrolov

    if Path(chebfrolov.__file__).resolve().parent != package.resolve():
        print(f"error: imported chebfrolov from {chebfrolov.__file__}, not {package}", file=sys.stderr)
        return 2

    from tracing import Tracer
    from workloads import WORKLOADS, Tally

    info = {"workload": args.workload, "env": environment(args.seed)}
    # One core for this process and its children: the speed samples then
    # measure the core the measured code runs on, and a CLI child is paused
    # (not sped up) while the parent samples.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    tally = Tally()
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](random.Random(args.seed), tally, tracer)
    try:
        if args.trace:
            values = per_layer(workload, tracer, args, info)
            wanted = spec["per_layer"]
        else:
            values = end_to_end(workload, tally, args, info)
            wanted = spec["end_to_end"]
    finally:
        workload.close()
    if set(values) != {m["name"] for m in wanted}:
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    info["errors"] = tally.errors
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
