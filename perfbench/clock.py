"""Reference-speed timing for a host whose speed drifts.

On a shared 2-core host the speed of pure-Python code swings by about
+-20 % within seconds, and by more between minutes, which is far wider than
any regression bound.  So while a workload runs, a timer signal samples the
host's speed every INTERVAL_S by timing a fixed pure-Python calibration
loop, and every operation's wall time is integrated against that speed:

    reference seconds = wall seconds * NOMINAL_S / calibration seconds

A reference second is the time in which the calibration loop takes
``NOMINAL_S``.  The loop is the benchmark's own code, so a change to
chebfrolov cannot move it; it only cancels the host's drift, which moves
both alike.  The time spent in the samples themselves is taken out of every
operation.  Raw wall-clock figures are kept beside the scaled ones.

A child process that runs measured work samples itself with ``Sampler``
and hands its samples to the parent's ``Clock`` (see ``cli_child.py``).
This module is imported inside such a measured child, so it imports little.
"""

from __future__ import annotations

import bisect
import math
import signal
from collections import defaultdict
from time import perf_counter

#: Calibration-loop time that defines a reference second (between the
#: 1.1 ms and 1.8 ms the loop takes on a 2-core Intel Xeon host in its fast
#: and slow phases).
NOMINAL_S = 1.5e-3

#: Seconds between speed samples while a workload runs (each costs ~4 ms).
INTERVAL_S = 0.1

#: Pending operations are resolved in batches of this size, which bounds the
#: benchmark's own memory (it shows in peak_rss_mb).
RESOLVE_EVERY = 1000


def calibration_s(timer=perf_counter) -> float:
    """Median of three timings of a fixed pure-Python loop: float maths, tuples, indexing."""
    samples = []
    for _ in range(3):
        start = timer()
        acc = 0.0
        for i in range(6000):
            pair = (i * 0.5, i & 7)
            acc += math.cos(pair[0]) * pair[1]
        samples.append(timer() - start)
    return sorted(samples)[1]


class Sampler:
    """Speed samples every INTERVAL_S on SIGALRM, as (begin, end, loop seconds)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []

    def sample(self, *_signal) -> None:
        begin = perf_counter()
        loop = calibration_s()
        self.samples.append((begin, perf_counter(), loop))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Clock(Sampler):
    """Collects operation times per kind, in reference seconds.

    ``start`` and ``stop`` bracket a measured phase; ``add`` records an
    operation by its perf_counter interval and the units of work it did.
    After ``stop``, ``times`` (reference seconds, per operation), ``raw_s``
    (total wall seconds without the sampling, per kind) and ``units`` cover
    every operation so far.  The speed between two samples is the mean of
    the two, so an operation is resolved once a sample follows its end.
    """

    def __init__(self) -> None:
        super().__init__()
        self.times: dict[str, list[float]] = defaultdict(list)
        self.raw_s: dict[str, float] = defaultdict(float)
        self.units: dict[str, float] = defaultdict(float)
        self._ops: list[tuple[str, float, float, float]] = []

    def start(self) -> None:
        self.sample()
        super().start()

    def pause(self) -> None:
        """Stop sampling, after one last sample (before a child process runs).

        On one core, a sample taken while a child runs would time the two
        sharing the core, not the host's speed; the child samples itself.
        """
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.sample()

    def resume(self, child_samples=()) -> None:
        """Take the samples of the child that ran since ``pause``, sample, go on sampling."""
        self.samples.extend(tuple(s) for s in child_samples)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        super().stop()
        self.sample()
        self._resolve()

    def add(self, kind: str, begin: float, end: float, units: float = 1) -> None:
        self._ops.append((kind, begin, end, units))
        if len(self._ops) >= RESOLVE_EVERY:
            self._resolve()

    def _resolve(self) -> None:
        """Integrate the sampled speed over every operation a sample follows.

        Time inside a sample counts for nothing; between two samples the
        speed is the mean of theirs.
        """
        samples = list(self.samples)
        begins = [s[0] for s in samples]
        ref_at, wall_at = [0.0], [0.0]  # reference and wall seconds at each sample's end
        for (_, prev_end, prev_loop), (begin, _, loop) in zip(samples, samples[1:]):
            ref_at.append(ref_at[-1] + (begin - prev_end) * NOMINAL_S * 2.0 / (prev_loop + loop))
            wall_at.append(wall_at[-1] + begin - prev_end)

        def at(t: float) -> tuple[float, float]:
            i = bisect.bisect_right(begins, t) - 1
            _, end, loop = samples[i]
            dt = max(t - end, 0.0)
            if dt == 0.0:
                return ref_at[i], wall_at[i]
            return ref_at[i] + dt * NOMINAL_S * 2.0 / (loop + samples[i + 1][2]), wall_at[i] + dt

        pending = []
        for op in self._ops:
            kind, begin, end, units = op
            if end >= begins[-1]:
                pending.append(op)
                continue
            ref0, wall0 = at(begin)
            ref1, wall1 = at(end)
            self.times[kind].append(ref1 - ref0)
            self.raw_s[kind] += wall1 - wall0
            self.units[kind] += units
        self._ops = pending

    def speed(self) -> float:
        """Median host speed over the run, as NOMINAL_S / calibration time."""
        import statistics  # here, not at the top: see the module docstring

        return NOMINAL_S / statistics.median(s[2] for s in self.samples)
