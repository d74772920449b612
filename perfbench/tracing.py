"""Spans, decomposition counters and order statistics for the qbc benchmark.

A span times one call.  A span opened while another is open on the same
thread becomes its child.  ``Tracer.wrapping(names)`` replaces public qbc
functions, in every qbc module that holds them, by wrappers that open a
span named after the function; the spans of a traced operation therefore
come from the library's real call tree.  ``Tracer.under(span)`` re-opens a
closed span as the parent of the spans recorded next, which attaches an
extra timed call (such as a bare Philox draw) to an operation.  A span's
self time is its duration minus the durations of its direct children.

Spans are kept in memory and aggregated per name when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Iterator, Sequence

# The numpy.linalg decompositions whose calls the traced run counts.
KERNELS = ("eigh", "eigvalsh", "svd", "qr")


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated q-quantile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


class Span:
    __slots__ = ("name", "duration", "children")

    def __init__(self, name: str):
        self.name = name
        self.duration = 0.0
        self.children = 0.0  # summed duration of direct children

    @property
    def self_time(self) -> float:
        return self.duration - self.children


class Tracer:
    """Records spans.  Each thread has its own stack of open spans, so a
    span opened on a pool thread has no parent."""

    def __init__(self):
        self._local = threading.local()
        self.spans: list[Span] = []

    @property
    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(name)
        stack = self._stack
        parent = stack[-1] if stack else None
        stack.append(record)
        start = time.perf_counter()
        try:
            yield record
        finally:
            record.duration = time.perf_counter() - start
            stack.pop()
            if parent is not None:
                parent.children += record.duration
            self.spans.append(record)

    @contextlib.contextmanager
    def under(self, parent: Span) -> Iterator[None]:
        self._stack.append(parent)
        try:
            yield
        finally:
            self._stack.pop()

    @contextlib.contextmanager
    def wrapping(self, names: Sequence[str]) -> Iterator[None]:
        """Time every call of the named qbc functions ("module.function").

        A qbc module that imported a function by name calls it through its
        own namespace, so the wrapper is set in every loaded qbc module that
        holds the function, and the originals are put back on exit.
        """
        targets = {}
        for name in names:
            module, function = name.split(".")
            fn = getattr(importlib.import_module(f"qbc.{module}"), function)
            targets[id(fn)] = (fn, self._wrap(name, fn))
        patched = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "qbc" or module_name.startswith("qbc.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    setattr(module, attr, targets[id(value)][1])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed self time (ms) and median duration (us)."""
        by_name: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)
        return {
            name: {
                "calls": len(spans),
                "self_ms": 1e3 * sum(s.self_time for s in spans),
                "us_p50": 1e6 * median([s.duration for s in spans]),
            }
            for name, spans in by_name.items()
        }


class KernelCounter:
    """Counts calls into the numpy.linalg decompositions while installed.

    The wrappers replace the attributes of the ``numpy.linalg`` namespace,
    which is where qbc looks them up on every call; numpy's own internal
    calls are not counted.  A lock keeps counts from pool threads exact.
    """

    def __init__(self, linalg_module):
        self._linalg = linalg_module
        self._lock = threading.Lock()
        self.counts: Counter[str] = Counter()

    @property
    def total(self) -> int:
        with self._lock:
            return sum(self.counts.values())

    @contextlib.contextmanager
    def counting(self) -> Iterator[None]:
        originals = {name: getattr(self._linalg, name) for name in KERNELS}
        for name, fn in originals.items():
            setattr(self._linalg, name, self._wrap(name, fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(self._linalg, name, fn)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

