"""``python -m chebfrolov.cli ARGS`` with the benchmark's speed sampler inside.

    python3 perfbench/cli_child.py ARGS...     (chebfrolov on PYTHONPATH)

The cli workload runs each command through this file.  The host's speed
swings within a tenth of a second, so two samples taken by the parent
before and after a command of a second or so say little about the speed
the command ran at.  Here the process that does the work samples itself
every ``clock.INTERVAL_S``, as the in-process workloads do, and at exit
writes its samples to standard error as the last line,
``SAMPLES <json list of [begin, end, loop seconds]>``.  perf_counter is
the system's monotonic clock, so the parent's Clock can place them among
its own.
"""

import json
import runpy
import sys

from clock import Sampler

sampler = Sampler()
sys.argv = ["chebfrolov.cli", *sys.argv[1:]]
sampler.start()
try:
    runpy.run_module("chebfrolov.cli", run_name="__main__", alter_sys=True)
finally:
    sampler.stop()
    print("SAMPLES", json.dumps(sampler.samples), file=sys.stderr)
