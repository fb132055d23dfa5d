"""In-memory span tracer for the benchmark.

The tracer wraps public functions of the package at the names their callers
bind (for example ``solver.free_solution_dt``, which ``march`` calls), so no
code under ``src/`` changes.  Each call records one span
``[name, start, end, parent, attrs]``; self time is a span's duration minus
the durations of its direct children, both net of the speed-probe ticks
(see ``speed.py``) that fired inside them.  Spans stay in memory until the
run writes them out.

Tracing is single-threaded: the parent of a span is the innermost open span
of the one thread that runs the workload.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from typing import Callable, Optional

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, tag: Optional[Callable] = None) -> Callable:
        """Return fn wrapped so that each call records a span called name.

        tag(args, kwargs, result) may return a dict of counts stored on the
        span (levels marched, points evaluated, ...).
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()
            if tag is not None:
                rec[ATTRS] = tag(args, kwargs, out)
            return out

        return traced

    def patch(self, owner: object, attr: str, name: str, tag: Optional[Callable] = None) -> None:
        original = inspect.getattr_static(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, tag))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self.stack.pop()
            rec[END] = time.perf_counter()


def durations(spans: list[list], ticks=()) -> list[float]:
    """Span durations net of the probe ticks (start, end, parent) inside them."""
    out = [s[END] - s[START] for s in spans]
    for start, end, k in ticks:
        while k >= 0:
            out[k] -= end - start
            k = spans[k][PARENT]
    return out


def self_times(spans: list[list], dur: list[float]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = list(dur)
    for k, s in enumerate(spans):
        if s[PARENT] >= 0:
            out[s[PARENT]] -= dur[k]
    return out


def layer_of(name: str) -> str:
    """Aggregation key: theory.* and core.InitialData.* each count as one layer."""
    if name.startswith("theory."):
        return "theory"
    if name.startswith("core.InitialData."):
        return "core.InitialData"
    return name


def summarize(spans: list[list], dur: list[float]) -> dict:
    """Per-layer calls, busy time and self time, from durations net of ticks.

    busy sums the spans of a layer that have no ancestor in the same layer,
    so recursion and nested methods are not counted twice.  Integer span
    attributes are counts and are summed per layer.
    """
    selfs = self_times(spans, dur)
    layers: dict[str, dict] = {}
    for k, s in enumerate(spans):
        key = layer_of(s[NAME])
        row = layers.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "attrs": {}})
        row["calls"] += 1
        row["self_s"] += selfs[k]
        anc = s[PARENT]
        while anc >= 0 and layer_of(spans[anc][NAME]) != key:
            anc = spans[anc][PARENT]
        if anc < 0:
            row["busy_s"] += dur[k]
        for attr, val in (s[ATTRS] or {}).items():
            if isinstance(val, int):
                row["attrs"][attr] = row["attrs"].get(attr, 0) + val
    return layers
