"""Per-KB micro-batching of concurrent requests.

The front end enqueues every request for a knowledge base into one
:class:`BatchQueue`; the server's per-KB drain loop wakes, lets the event
loop settle once (so requests that arrived "together" actually meet in the
queue), and then pops work in arrival order:

* a maximal run of *consecutive query requests* becomes one batch — the
  batch resolves answer-cache hits immediately, deduplicates the remaining
  queries by fingerprint, and evaluates each distinct query once
  (amortizing plan probes across requests exactly the way the join
  pipelines amortize tuples);
* a *mutation* request (add/retract) is a barrier: it is popped alone, so
  every earlier query is answered against the pre-mutation generation and
  every later one sees the mutation.

Admission is **bounded**: a queue built with ``max_depth`` refuses new
requests with :class:`QueueOverloadedError` once its depth reaches the
high-water mark, and the server turns that into a structured
``overloaded`` response — shedding load at the door instead of letting an
unbounded backlog grow latency without limit.  Requests already admitted
are always served (or time out against their own deadlines).

:class:`BatcherStats` (a block of the shared :class:`repro.obs.Counters`)
records the batch-size histogram and the dedup savings that the server's
``stats`` op reports, per KB and merged.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from ..obs import Counters

#: hard cap on how many query requests one dispatched batch may carry;
#: bounds per-batch latency under a flood without starving the queue
DEFAULT_MAX_BATCH_SIZE = 128

#: request kinds that mutate the KB and therefore act as batch barriers
MUTATION_KINDS = ("add", "retract")

#: default admission bound per KB queue; deep enough that a busy server
#: never sheds by accident, shallow enough that a stalled worker tier
#: cannot accumulate an unbounded latency backlog
DEFAULT_MAX_QUEUE_DEPTH = 1024


class QueueOverloadedError(RuntimeError):
    """Raised by :meth:`BatchQueue.submit` when the queue is at its
    high-water mark; the server sheds the request with a structured
    ``overloaded`` response instead of admitting it."""


@dataclass
class PendingRequest:
    """One enqueued request: its kind, payload, and the future to resolve."""

    kind: str  # "query" | "add" | "retract"
    #: the query text (kind == "query") or the facts text (mutations)
    text: str
    future: "asyncio.Future"
    #: canonical cache fingerprint, filled by the server for queries
    fingerprint: Optional[str] = None
    #: requested evaluation strategy (queries only; see QueryOptions)
    strategy: str = "auto"
    enqueued_at: float = field(default_factory=time.perf_counter)


class BatchQueue:
    """An awaitable FIFO of :class:`PendingRequest` for one knowledge base."""

    def __init__(self, max_depth: Optional[int] = DEFAULT_MAX_QUEUE_DEPTH) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max queue depth must be positive, got {max_depth}")
        self._pending: Deque[PendingRequest] = deque()
        self._wake = asyncio.Event()
        self.closed = False
        self.max_depth = max_depth
        #: deepest the queue has ever been (stats)
        self.high_water = 0

    def submit(self, request: PendingRequest) -> None:
        if self.closed:
            raise RuntimeError("queue is closed (server is shutting down)")
        if self.max_depth is not None and len(self._pending) >= self.max_depth:
            raise QueueOverloadedError(
                f"admission queue is at its high-water mark "
                f"({self.max_depth} pending requests); retry with backoff"
            )
        self._pending.append(request)
        self.high_water = max(self.high_water, len(self._pending))
        self._wake.set()

    def close(self) -> None:
        """Refuse new work; already-enqueued requests will still be served."""
        self.closed = True
        self._wake.set()

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def drained(self) -> bool:
        return self.closed and not self._pending

    async def wait(self) -> None:
        """Block until there is (or might be) work, then reset the signal."""
        await self._wake.wait()
        self._wake.clear()
        if self._pending:
            # let concurrently-arriving requests land before batching; one
            # zero-sleep yields the loop exactly once, which is the whole
            # micro-batching window — no timer, no added latency floor
            await asyncio.sleep(0)

    def head_kind(self) -> Optional[str]:
        return self._pending[0].kind if self._pending else None

    def pop_mutation(self) -> PendingRequest:
        head = self._pending.popleft()
        assert head.kind in MUTATION_KINDS
        return head

    def pop_query_batch(
        self, max_batch_size: int = DEFAULT_MAX_BATCH_SIZE
    ) -> List[PendingRequest]:
        """Pop the maximal leading run of queries (bounded by the cap)."""
        batch: List[PendingRequest] = []
        while (
            self._pending
            and self._pending[0].kind == "query"
            and len(batch) < max_batch_size
        ):
            batch.append(self._pending.popleft())
        return batch


class BatcherStats(Counters):
    """Counters describing how well batching and dedup amortized the work.

    ``sheds`` counts requests refused at admission because the queue was
    full, and ``timeouts`` requests whose deadline expired before their
    answer was delivered.  Two tallies count per key: the batch-size
    histogram (grouped query requests per batch -> batches) and
    ``requests_by_strategy`` (requested strategy -> query requests).
    """

    __slots__ = (
        "batches",
        "requests",
        "cache_hits",
        "evaluated",
        "dedup_saved",
        "mutations",
        "sheds",
        "timeouts",
        "requests_by_strategy",
        "batch_size_histogram",
    )
    TALLIES = ("requests_by_strategy", "batch_size_histogram")
    DERIVED = {
        "max_batch_size": lambda stats: max(stats.batch_size_histogram, default=0)
    }

    def record_batch(self, size: int, cache_hits: int, evaluated: int) -> None:
        """One dispatched query batch: ``size`` requests grouped, of which
        ``cache_hits`` were answered from cache and the rest deduplicated
        down to ``evaluated`` distinct evaluations."""
        self.batches += 1
        self.requests += size
        self.cache_hits += cache_hits
        self.evaluated += evaluated
        self.dedup_saved += (size - cache_hits) - evaluated
        self.batch_size_histogram[size] = self.batch_size_histogram.get(size, 0) + 1
