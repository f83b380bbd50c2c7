"""A long-lived serving layer over compiled knowledge bases.

This package turns the library's compile-once-serve-many story into an
actual server process: one or more ``repro-kb/v2`` knowledge bases stay
resident with warm, materialized reasoning sessions, and concurrent
clients query and mutate them over newline-delimited JSON.

Architecture
------------

Requests flow through four layers, each its own module::

    TCP / LocalClient          (protocol.py — NDJSON framing, one format
         |                      shared with `serve-batch --json`)
         v
    ReasoningServer            (server.py — request routing, per-KB drain
         |                      loops, graceful shutdown)
         v
    BatchQueue + AnswerCache   (batcher.py, cache.py — micro-batching,
         |                      dedup, generation-stamped LRU answers)
         v
    worker tier                (workers.py — warm sessions inline or on a
                                ProcessPoolExecutor, op-log catch-up)

**Front end** (:mod:`.server`): an asyncio server accepts NDJSON requests
over TCP (``python -m repro serve``) or in process
(:meth:`~repro.serve.server.ReasoningServer.local_client`, used by tests
and the repository benchmark so both paths exercise identical code).  Requests
carry an ``id`` echoed in the response, so clients pipeline freely.

**Micro-batching** (:mod:`.batcher`): every request lands in a per-KB
queue drained by one task per KB.  The drain loop yields to the event loop
exactly once after waking, so requests that arrive concurrently meet in
the queue; a maximal run of queries then becomes one batch.  Cache hits
are answered immediately, the remaining queries are deduplicated by
fingerprint, and each distinct query is evaluated once for the whole
batch.  Mutations are *barriers*: the loop waits for in-flight batches,
appends the op to the KB's log, and applies it alone — which is what makes
per-KB request ordering sequentially consistent.

**Answer cache** (:mod:`.cache`): an LRU keyed on interned canonical query
fingerprints, stamped with the KB generation it was computed at.  Any
``add``/``retract`` bumps the generation (O(1) invalidation — stale
entries die lazily on lookup), and inserts from batches that raced with a
mutation are refused, so the cache can never serve a pre-mutation answer.

**Worker tier** (:mod:`.workers`): CPU-bound reasoning never runs on the
event loop.  With ``--workers 0`` the work runs on a serialized thread;
with ``--workers N`` a :class:`~concurrent.futures.ProcessPoolExecutor`
holds N processes, each keeping warm sessions keyed by KB fingerprint.
Workers reach the server-assigned generation by replaying the suffix of
the per-KB op log they have not seen yet — the mutation barrier guarantees
no worker is ever *ahead* of a batch's assigned prefix, so sessions only
ever roll forward.

Fault tolerance
---------------

The serving layer assumes its parts fail and is built to keep answering
correctly anyway; every mechanism below is exercised by the deterministic
fault-injection harness (:mod:`.faults`, driven by
``python -m repro.serve.smoke --chaos`` and the resilience test suite):

* **Worker supervision** — a dead worker process breaks the whole pool
  (``BrokenProcessPool``); the tier rebuilds the executor once per crash
  and retries the failed tasks with capped exponential backoff.  Retries
  are safe by construction: batches are idempotent reads of the op-log
  prefix, and an unacked mutation re-runs against fresh sessions that
  replay it from the log exactly once.  Worker pools use a ``forkserver``
  context so rebuilt workers never inherit live connection descriptors.
* **Deadlines** — every query/add/retract runs under a ``deadline_ms``
  (per-request or the server default); expiry produces a structured
  ``timeout`` error instead of a hang, and a mutation that expires while
  still queued is guaranteed *not* applied.
* **Backpressure** — per-KB admission queues are bounded; past the
  high-water mark requests are shed at the door with a structured
  ``overloaded`` error rather than growing an unbounded latency backlog.
* **Op-log checkpoints** — once a KB's log passes a threshold the server
  snapshots the surviving base facts and truncates the log, so worker
  catch-up (and every post-crash rebuild) replays O(ops since checkpoint)
  instead of the full mutation history.  A warm session standing exactly
  at the checkpoint generation adopts the new epoch in place; a session
  whose catch-up fails mid-suffix is quarantined and rebuilt rather than
  left half-advanced.
* **Client fail-fast** — a dead connection raises
  :class:`~repro.serve.server.ClientDisconnectedError` promptly for every
  in-flight and later request (no dangling futures); reconnect and
  resubmit.

The ``stats`` op reports the whole ledger: per-KB queue depth, op-log
length and checkpoint count, plus a ``resilience`` block (restarts,
retries, timeouts, sheds) and a ``fault_injection`` block when a
:class:`~repro.serve.faults.FaultPlan` is installed.

Serving latency is measured by the serve phase of the repository
benchmark (``perfbench/``: open-loop traffic with mutations, every answer
checked against ``KnowledgeBase.answer_many``), and correctness is guarded
by concurrency tests plus hypothesis properties stating that no
interleaving of cached answers, mutations, and injected worker kills
serves a stale or lost result.
"""

from .cache import AnswerCache, query_fingerprint
from .faults import FaultPlan
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_answers,
    encode_message,
    query_result,
)
from .server import (
    Client,
    ClientDisconnectedError,
    LocalClient,
    ReasoningServer,
    ServedKB,
    ServeError,
)

__all__ = [
    "AnswerCache",
    "Client",
    "ClientDisconnectedError",
    "FaultPlan",
    "LocalClient",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ReasoningServer",
    "ServeError",
    "ServedKB",
    "decode_message",
    "encode_answers",
    "encode_message",
    "query_fingerprint",
    "query_result",
]
