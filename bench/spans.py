"""In-memory spans recorded from outside the program.

The tracer wraps public functions by replacing the attribute in the
namespace of the module that calls them: `mofn.network` imports
`encode_dataset` by name, so the span around the call that `train` makes
is installed as `mofn.network.encode_dataset`, not on `mofn.encoding`.
Every span records its name, start, end, parent span and the id of the
top-level operation it belongs to.  Self time is a span's duration minus
the part of it that its children cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass
from statistics import median


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a top-level operation
    op: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.counting = True     # counts are taken over one fixed pass of the inputs
        self._stack: list[int] = []
        self._op = 0
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent == -1:
            self._op += 1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def count(self, key: str, amount: int = 1) -> None:
        if self.counting:
            self.counts[key] += amount

    def patch(self, module, attr: str, name, on_result=None) -> None:
        """Replace module.attr by a wrapper that records a span.

        `name` is a span name or a function of the call's arguments that
        returns one; `on_result(result, *args, **kwargs)` may add counts.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            self.count(label + ".calls")
            result = self.call(label, original, *args, **kwargs)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, tuple[float, float]]:
    """Per span name: (median total seconds, median self seconds) per call."""
    selfs = self_times(spans)
    totals: dict[str, list[float]] = {}
    own: dict[str, list[float]] = {}
    for span, s in zip(spans, selfs):
        totals.setdefault(span.name, []).append(span.end - span.start)
        own.setdefault(span.name, []).append(s)
    return {name: (median(totals[name]), median(own[name])) for name in totals}


def op_share(spans: list[Span], root_name: str) -> float:
    """Median over top-level spans named `root_name` of the share of their
    duration that the self time of their descendants accounts for."""
    selfs = self_times(spans)
    inside: dict[int, float] = {}
    roots = {}
    for span in spans:
        if span.parent == -1 and span.name == root_name:
            roots[span.op] = span.end - span.start
    for span, s in zip(spans, selfs):
        if span.parent >= 0 and span.op in roots:
            inside[span.op] = inside.get(span.op, 0.0) + s
    shares = [inside.get(op, 0.0) / d for op, d in roots.items() if d > 0]
    return median(shares) if shares else 0.0
