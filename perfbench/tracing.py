"""Span tracing for the traced benchmark run, kept entirely outside the package.

The tracer wraps public names of the ``chebfrolov`` modules (and the
benchmark's own integrand) with timing wrappers.  Spans are aggregated in
memory by (name, parent): call count, total time, self time (total minus the
time covered by child spans) and, for the streaming enumerator, points
emitted.  A name that a later version of the package no longer has is listed
as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

#: Span name -> the (module, attribute) pairs wrapped under that name.  The
#: package-level names are the ones the benchmark calls itself; the
#: module-level ones are the references the package's own modules call.
SPAN_TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "lattice.build_diag_ladder": (
        ("chebfrolov", "build_diag_ladder"),
        ("chebfrolov.verify", "build_diag_ladder"),
        ("chebfrolov.cli", "build_diag_ladder"),
    ),
    "enumeration.count_points": (
        ("chebfrolov", "count_points"),
        ("chebfrolov.verify", "count_points"),
        ("chebfrolov.cli", "count_points"),
    ),
    "enumeration.enumerate_stream": (
        ("chebfrolov", "enumerate_stream"),
        ("chebfrolov.cubature", "enumerate_stream"),
        ("chebfrolov.verify", "enumerate_stream"),
        ("chebfrolov.cli", "enumerate_stream"),
    ),
    "enumeration.apply_generator": (
        ("chebfrolov", "apply_generator"),
        ("chebfrolov.cubature", "apply_generator"),
    ),
    "cubature.integrate": (
        ("chebfrolov", "integrate"),
        ("chebfrolov.cli", "integrate"),
    ),
    "cubature.map_to_unit": (("chebfrolov.cubature", "map_to_unit"),),
    "verify.oracle_enumerate": (("chebfrolov", "oracle_enumerate"),),
    "verify.reproduce_table": (("chebfrolov.cli", "reproduce_table"),),
    "verify.double_box_check": (("chebfrolov.cli", "double_box_check"),),
    "verify.unimodular_check": (("chebfrolov.cli", "unimodular_check"),),
    "cli.main": (("chebfrolov.cli", "main"),),
    "cli.format_point": (("chebfrolov.cli", "format_point"),),
}

#: Spans whose wrapped call returns the number of points it emitted.
COUNTING_SPANS = frozenset({"enumeration.enumerate_stream"})


class Tracer:
    """Wraps callables with span timers; ``paused`` turns recording off."""

    def __init__(self) -> None:
        # (name, parent) -> [calls, total_s, self_s, items]
        self.spans: dict[tuple[str, str | None], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.absent: list[str] = []
        self.paused = False
        self._stack: list[list] = []  # [name, child_seconds]
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        counting = name in COUNTING_SPANS
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = spans[(name, parent)]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if counting and isinstance(result, int):
                    rec[3] += result

        return traced

    def install(self, extra: tuple[tuple[object, str, str], ...] = ()) -> None:
        """Wrap every target in SPAN_TARGETS plus ``extra`` (owner, key, span).

        An owner is a module or object (the key names an attribute) or a dict
        (the key names an entry).
        """
        targets = []
        for name, pairs in SPAN_TARGETS.items():
            for module, attr in pairs:
                try:
                    targets.append((importlib.import_module(module), attr, name))
                except ImportError:
                    self.absent.append(f"{module}.{attr}")
        targets.extend(extra)
        for owner, attr, name in targets:
            fn = _get(owner, attr)
            if not callable(fn):
                self.absent.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
                continue
            self._installed.append((owner, attr, fn))
            _set(owner, attr, self.wrap(fn, name))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            _set(owner, attr, fn)
        self._installed.clear()

    def total(self, name: str, field: int = 1) -> float:
        """Sum of one field (0 calls, 1 total, 2 self, 3 items) over all parents."""
        return sum(rec[field] for (span, _), rec in self.spans.items() if span == name)

    def table(self) -> list[dict]:
        """Every aggregated span, for the run's info record."""
        return [
            {
                "name": name,
                "parent": parent,
                "calls": rec[0],
                "total_s": rec[1],
                "self_s": rec[2],
                **({"points": rec[3]} if name in COUNTING_SPANS else {}),
            }
            for (name, parent), rec in sorted(self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
        ]

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures from the spans, per traced round where the unit says so."""
        per = 1.0 / max(rounds, 1)
        integrate = self.total("cubature.integrate")
        map_s = self.total("cubature.map_to_unit")
        integrand_s = self.total("cubature.integrand")
        stream_self = self.total("enumeration.enumerate_stream", 2)
        emitted = self.total("enumeration.enumerate_stream", 3)
        return {
            "enumeration.count_points_s": self.total("enumeration.count_points") * per,
            "enumeration.count_points_calls": self.total("enumeration.count_points", 0) * per,
            "enumeration.enumerate_stream_self_s": stream_self * per,
            "enumeration.points_emitted": emitted * per,
            "enumeration.stream_ns_per_point": stream_self / emitted * 1e9 if emitted else 0.0,
            "enumeration.apply_generator_s": self.total("enumeration.apply_generator") * per,
            "cubature.integrate_s": integrate * per,
            "cubature.integrate_self_s": self.total("cubature.integrate", 2) * per,
            "cubature.map_to_unit_s": map_s * per,
            "cubature.map_to_unit_calls": self.total("cubature.map_to_unit", 0) * per,
            "cubature.integrand_s": integrand_s * per,
            "cubature.integrand_calls": self.total("cubature.integrand", 0) * per,
            "cubature.node_share": (map_s + integrand_s) / integrate if integrate else 0.0,
            "verify.oracle_enumerate_s": self.total("verify.oracle_enumerate") * per,
            "verify.reproduce_table_s": self.total("verify.reproduce_table") * per,
            "verify.double_box_check_s": self.total("verify.double_box_check") * per,
            "verify.unimodular_check_s": self.total("verify.unimodular_check") * per,
            "cli.format_point_s": self.total("cli.format_point") * per,
        }


def _get(owner, key):
    return owner.get(key) if isinstance(owner, dict) else getattr(owner, key, None)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)
