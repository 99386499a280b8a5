"""Spans around the calls into each jscthermo layer, recorded from outside.

The tracer replaces public functions in the namespaces their callers look
them up in (``jscthermo.cli.analyze``, ``jscthermo.phases.channel_phi``, ...)
with timing wrappers, and puts the originals back on exit.  Spans are kept
in memory; the benchmark writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import asdict, dataclass


def _pairs(code, *_args, **_kwargs) -> int:
    """(message, output) pairs that exact_mi enumerates for this codebook."""
    return code.num_messages * code.system.channel.out_size ** code.n


def _trials(_code, trials, *_args, **_kwargs) -> int:
    return int(trials)


# (module looked up by the caller, attribute, span name, work counter)
PATCHES = (
    ("jscthermo.cli", "system_from_dict", "models.system_from_dict", None),
    ("jscthermo.phases", "source_entropy_function", "models.source_entropy_function", None),
    ("jscthermo.phases", "channel_phi", "models.channel_phi", None),
    ("jscthermo.cli", "analyze", "phases.analyze", None),
    ("jscthermo.phases", "analyze", "phases.analyze", None),
    ("jscthermo.cli", "mutual_information_rate", "phases.mutual_information_rate", None),
    ("jscthermo.phases", "concave_envelope", "tabulated.concave_envelope", None),
    ("jscthermo.phases", "clip_nonnegative", "tabulated.clip_nonnegative", None),
    ("jscthermo.cli", "draw_code", "oracle.draw_code", None),
    ("jscthermo.cli", "exact_mi", "oracle.exact_mi", _pairs),
    ("jscthermo.cli", "mc_mi", "oracle.mc_mi", _trials),
    ("jscthermo.cli", "wiretap_from_dict", "applications.wiretap_from_dict", None),
    ("jscthermo.cli", "secrecy_capacity", "applications.secrecy_capacity", None),
    ("jscthermo.cli", "gamma", "applications.gamma", None),
    ("jscthermo.applications", "gamma", "applications.gamma", None),
    ("jscthermo.cli", "tap_capacity", "applications.tap_capacity", None),
    ("jscthermo.cli", "max_main_rate", "applications.max_main_rate", None),
)

ROOT = "cli.main"   # the span around each CLI call of an operation

# per-layer metrics: summed span time per operation, median over operations
TIME_METRICS = (
    "models.channel_phi", "models.source_entropy_function", "models.system_from_dict",
    "phases.analyze", "tabulated.concave_envelope", "tabulated.clip_nonnegative",
    "oracle.draw_code", "oracle.exact_mi", "oracle.mc_mi",
    "applications.secrecy_capacity", "applications.gamma",
    "applications.tap_capacity", "applications.max_main_rate",
)


@dataclass
class Span:
    op: int
    span: int
    parent: int      # -1 for a root span
    name: str
    start: float
    end: float
    work: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one operation's spans share its op id."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next = 0
        self.op = -1
        self._saved = []

    def span(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._next, (self._stack[-1] if self._stack else -1)
            self._next += 1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(self.op, sid, parent, name, start, end,
                                       work(*args, **kwargs) if work else 0))
        return wrapper

    def __enter__(self):
        for module_name, attr, name, work in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original, work))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def records(self) -> list:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.span)]


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    child_time = {}
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.span: s.duration - child_time.get(s.span, 0.0) for s in spans}


def layer_metrics(spans, ops: list) -> dict:
    """Per-layer figures from the spans of the operations in ``ops``.

    Times are the median over operations of the time spent per operation
    in each layer; a layer that a workload never calls reads 0.
    """
    selfs = self_times(spans)
    per_op = {op: {} for op in ops}
    work = {}
    for s in spans:
        if s.op not in per_op:
            continue
        totals = per_op[s.op]
        totals[s.name] = totals.get(s.name, 0.0) + s.duration
        totals[s.name + "#n"] = totals.get(s.name + "#n", 0) + 1
        if s.name in (ROOT, "phases.analyze"):
            totals[s.name + "#self"] = totals.get(s.name + "#self", 0.0) + selfs[s.span]
        if s.work:
            done, busy = work.get(s.name, (0, 0.0))
            work[s.name] = (done + s.work, busy + s.duration)

    def median(key):
        return statistics.median(per_op[op].get(key, 0.0) for op in ops)

    metrics = {f"{name}.s": (median(name), "s") for name in TIME_METRICS}
    metrics["cli.self_s"] = (median(ROOT + "#self"), "s")
    metrics["phases.analyze.self_s"] = (median("phases.analyze#self"), "s")
    metrics["applications.gamma.calls"] = (median("applications.gamma#n"), "count")
    for name, key in (("oracle.exact_mi", "pairs_per_s"), ("oracle.mc_mi", "trials_per_s")):
        done, busy = work.get(name, (0, 0.0))
        metrics[f"{name}.{key}"] = (done / busy if busy > 0.0 else 0.0, "1/s")
    return metrics
