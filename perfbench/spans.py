"""In-memory span tracer for the benchmark's traced runs.

A span is ``(name, start, end, parent, thread)``.  Spans are recorded
around the benchmark's own calls into each layer's public entry points,
and around public methods the benchmark patches for the length of a
traced run (see :meth:`Tracer.patch`).  Nothing inside the program is
instrumented: with tracing off, no wrapper is installed and the
benchmark's own ``span`` calls cost one attribute check.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, Optional[int], int]


class Tracer:
    """Records spans in memory; disabled tracers record nothing."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as a span (a no-op when disabled)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, None, 0))
        parent = stack[-1] if stack else None
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, threading.get_ident())

    def record(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (no parent), e.g. one request."""
        if self.enabled:
            with self._lock:
                self.spans.append((name, start, end, None, threading.get_ident()))

    def patch(
        self,
        owner: object,
        attribute: str,
        name: str,
        observe: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Wrap ``owner.attribute`` in a span until :meth:`unpatch_all`.

        ``observe``, if given, is called with every result, so counters
        the result carries are read at the same boundary as the span.
        """
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        setattr(owner, attribute, traced)
        self._restore.append(lambda: setattr(owner, attribute, original))

    def unpatch_all(self) -> None:
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    # reading the trace
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total time and self time (seconds).

        Self time is a span's duration minus the durations of its direct
        children; children run inside their parent on the same thread, so
        they never overlap each other.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return totals

    def total(self, name: str) -> float:
        return sum(end - start for span_name, start, end, _, _ in self.spans if span_name == name)

    def intervals(self, name: str) -> List[Tuple[float, float]]:
        return sorted((start, end) for span_name, start, end, _, _ in self.spans if span_name == name)

    def as_json(self) -> List[Dict[str, object]]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "thread": thread}
            for name, start, end, parent, thread in self.spans
        ]


def covered_time(start: float, end: float, intervals: List[Tuple[float, float]], starts: List[float]) -> float:
    """Seconds of ``[start, end]`` covered by sorted, disjoint ``intervals``.

    ``starts`` is ``[interval[0] for interval in intervals]``, passed in so a
    caller checking many windows builds it once.
    """
    import bisect

    covered = 0.0
    index = max(0, bisect.bisect_right(starts, start) - 1)
    while index < len(intervals):
        span_start, span_end = intervals[index]
        if span_start >= end:
            break
        overlap = min(end, span_end) - max(start, span_start)
        if overlap > 0:
            covered += overlap
        index += 1
    return covered
