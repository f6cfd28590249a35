"""In-memory spans around calls into the program's layers, from outside.

Nothing under ``src/`` is instrumented.  A span is opened by the benchmark
around a call into a public function, or by a :class:`TimedProxy` standing
in for a collaborator a layer already takes as an argument or public
attribute (``computer=``, ``index.computer``, the ``index`` handed to
``ServingEngine``).  Spans stay in memory and are summarised once at the
end; a layer's self time is its span minus the union of its children.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Records ``[name, start, end, parent, phase]`` spans, one stack per thread.

    ``parent`` is the span that was open on the same thread when this one
    began (``None`` at top level).  ``phase`` labels every span opened while
    it is set, so spans of one workload phase share an id.  Spans are
    appended whole (atomic under the interpreter lock), so the serving
    engine's executor thread and the event-loop thread can both record.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.phase = ""
        self._local = threading.local()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), None, stack[-1] if stack else None, self.phase]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def mark(self) -> int:
        """Position to pass to :meth:`totals` to summarise only later spans."""
        return len(self.spans)

    def rows(self, since: int = 0) -> list[tuple]:
        """Closed spans as ``(name, start, end, parent_index, phase)`` rows."""
        spans = [s for s in self.spans[since:] if s[2] is not None]
        position = {id(span): index for index, span in enumerate(spans)}
        return [
            (name, start, end, position.get(id(parent), -1), phase)
            for name, start, end, parent, phase in spans
        ]

    def totals(self, since: int = 0) -> dict[str, dict]:
        """Per name: span count, total seconds and self seconds."""
        rows = self.rows(since)
        out: dict[str, dict] = {}
        for (name, start, end, *_), self_s in zip(rows, self_times(rows)):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        return out

    def dump(self, path) -> None:
        """Write every closed span as one JSON document."""
        keys = ("name", "start", "end", "parent", "phase")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, row)) for row in self.rows()], handle)


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its direct children.

    ``spans`` rows start ``(name, start, end, parent_index)``.  Children are
    clipped to the parent's interval and overlapping children (two threads
    working for one parent) are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, *_) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


class TimedProxy:
    """Stands in for ``inner``, opening a span around each named method.

    Every other attribute read or write goes straight through to ``inner``
    (kernels bump ``computer.count`` and read ``computer._data64``), so the
    wrapped object's answers and counters are those of the bare object.
    """

    def __init__(self, inner, tracer: Tracer, prefix: str, methods):
        object.__setattr__(self, "_inner", inner)
        for method in methods:
            object.__setattr__(
                self, method, _spanned(getattr(inner, method), tracer, f"{prefix}.{method}")
            )

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_inner"), name)

    def __setattr__(self, name, value):
        setattr(object.__getattribute__(self, "_inner"), name, value)


def _spanned(bound, tracer: Tracer, name: str):
    begin, end = tracer.begin, tracer.end

    def call(*args, **kwargs):
        span = begin(name)
        try:
            return bound(*args, **kwargs)
        finally:
            end(span)

    return call


#: the public methods of ``DistanceComputer`` a search or a build calls
EXACT_METHODS = (
    "prepare_query",
    "to_query_prepared",
    "to_query",
    "to_queries_segmented",
    "points_to_many_segmented",
    "one_to_query",
    "between",
    "one_to_many",
    "many_to_many",
)
#: the public methods of ``PQDistanceComputer`` the disk query path calls
PQ_METHODS = ("build_lut", "lut_to_ids", "lut_segmented", "rerank")


def exact_proxy(computer, tracer: Tracer) -> TimedProxy:
    return TimedProxy(computer, tracer, "distances", EXACT_METHODS)


def pq_proxy(computer, tracer: Tracer) -> TimedProxy:
    return TimedProxy(computer, tracer, "distances", PQ_METHODS)
