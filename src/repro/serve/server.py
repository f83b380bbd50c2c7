"""The long-lived reasoning server: asyncio front end over the worker tier.

:class:`ReasoningServer` holds one or more compiled knowledge bases
resident and serves concurrent query/add/retract traffic against them:

* requests enter through :meth:`handle_request` (used directly by the
  in-process :class:`LocalClient` and by the NDJSON-over-TCP listener);
* each KB's requests flow through a :class:`~repro.serve.batcher.BatchQueue`
  drained by one task per KB: consecutive queries are micro-batched (cache
  hits answered immediately, the rest deduplicated and evaluated once),
  mutations are barriers that bump the answer-cache generation and append
  to the KB's op log;
* CPU-bound work runs on the worker tier (:mod:`repro.serve.workers`) —
  inline threads or a process pool of warm sessions that catch up against
  the op log;
* :meth:`shutdown` drains: the queues refuse new work, in-flight batches
  finish and their responses are delivered, then the pool is torn down.

Consistency contract: responses are sequentially consistent per KB — a
query observes every mutation whose response was delivered before the
query was submitted, and the answer cache can never serve a result from
before a mutation (generation-stamped entries, see
:mod:`repro.serve.cache`).

Two knowledge bases registered under different names but with the same Σ
fingerprint *and* the same initial facts share one serving state (one op
log, one set of warm worker sessions) — the fingerprint is the safe share
key, which is how a fleet of logical KB names stays cheap.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..api import KnowledgeBase
from ..datalog.query import QueryValidationError, parse_query
from ..kb.cache import compile_cache_stats
from ..logic.atoms import Atom
from ..logic.instance import Instance
from ..logic.printer import format_fact
from ..logic.parser import parse_facts
from .batcher import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_QUEUE_DEPTH,
    MUTATION_KINDS,
    BatcherStats,
    BatchQueue,
    PendingRequest,
    QueueOverloadedError,
)
from .cache import DEFAULT_CAPACITY, AnswerCache, query_fingerprint
from .faults import FaultPlan
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    validate_request,
)
from .workers import build_kb_spec, make_worker_tier

#: server-side default deadline applied to query/add/retract requests that
#: do not carry their own ``deadline_ms``; generous enough that only a
#: genuinely wedged request trips it, finite so nothing ever hangs forever
DEFAULT_DEADLINE_MS = 30_000.0

#: op-log length at which the server snapshots the surviving base facts
#: and truncates the log, so worker catch-up (and every pool rebuild after
#: a crash) replays O(ops since checkpoint) instead of O(all history)
DEFAULT_CHECKPOINT_THRESHOLD = 32


class ServeError(RuntimeError):
    """Raised for server lifecycle misuse and failed client requests.

    ``kind`` mirrors the response's ``error_kind`` when the server tagged
    the failure (``"timeout"``, ``"overloaded"``), so callers can branch
    without parsing the message.
    """

    def __init__(self, message: str, kind: Optional[str] = None) -> None:
        super().__init__(message)
        self.kind = kind


class ClientDisconnectedError(ServeError):
    """The connection died with requests in flight.

    Raised promptly for every pending request (no future is left dangling)
    and by any later request on the dead client; reconnect with
    :meth:`Client.connect` and resubmit — the server never saw, or never
    answered, the failed requests.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message, kind="disconnected")


@dataclass
class ServedKB:
    """One knowledge base to serve: a handle name, the KB, its base facts."""

    name: str
    kb: KnowledgeBase
    initial_facts: "Instance | Sequence[Atom]" = ()


class _KBState:
    """Per-share-key serving state: queue, op log, checkpoint, batcher stats."""

    def __init__(
        self,
        key: str,
        kb: KnowledgeBase,
        facts_text: str,
        max_queue_depth: Optional[int] = DEFAULT_MAX_QUEUE_DEPTH,
    ) -> None:
        self.key = key
        self.kb = kb
        self.facts_text = facts_text
        self.queue = BatchQueue(max_queue_depth)
        #: ordered mutation log *since the last checkpoint*:
        #: ("add" | "retract", facts text)
        self.ops: List[Tuple[str, str]] = []
        #: the surviving base facts as canonical fact lines — the front end
        #: folds every applied mutation in, so a checkpoint is one snapshot
        #: of this set (a session materialized from it equals a session
        #: that replayed the full history; the checkpoint tests pin that)
        self.base_lines: Set[str] = {
            line for line in facts_text.splitlines() if line
        }
        #: monotonically increasing checkpoint epoch (0 = the original spec)
        self.epoch = 0
        #: ops folded into the current checkpoint; the absolute generation
        #: of the KB is checkpoint_base + len(ops)
        self.checkpoint_base = 0
        #: the checkpoint's fact snapshot (shipped to workers per task)
        self.checkpoint_facts = facts_text
        #: checkpoints taken over this state's lifetime
        self.checkpoints = 0
        self.stats = BatcherStats()
        #: effective strategy (reported by the workers) -> evaluations run
        self.evaluated_by_strategy: Dict[str, int] = {}
        self.inflight: Set[asyncio.Task] = set()
        self.drain_task: Optional[asyncio.Task] = None

    @property
    def generation(self) -> int:
        return self.checkpoint_base + len(self.ops)

    def checkpoint_payload(self) -> Optional[Dict[str, object]]:
        """What a worker task needs to build/advance a session: the current
        checkpoint (``None`` at epoch 0 — the spec facts already shipped
        with the worker tier's specs are the epoch-0 snapshot)."""
        if self.epoch == 0:
            return None
        return {
            "epoch": self.epoch,
            "base": self.checkpoint_base,
            "facts": self.checkpoint_facts,
        }

    def fold_mutation(self, kind: str, fact_lines: Sequence[str]) -> None:
        """Fold one applied mutation into the surviving-base-facts set."""
        if kind == "add":
            self.base_lines.update(fact_lines)
        else:
            self.base_lines.difference_update(fact_lines)

    def take_checkpoint(self) -> None:
        """Snapshot the surviving base facts and truncate the op log.

        Called only at the mutation barrier (no in-flight batches), so no
        dispatched task still references the truncated prefix; warm worker
        sessions standing at the checkpoint generation adopt the new epoch
        in place, anything behind it rebuilds from the snapshot.
        """
        self.checkpoint_base = self.generation
        self.ops = []
        self.epoch += 1
        self.checkpoint_facts = "\n".join(sorted(self.base_lines))
        self.checkpoints += 1


class ReasoningServer:
    """Serve concurrent reasoning traffic over resident compiled KBs."""

    def __init__(
        self,
        served: Sequence[ServedKB],
        workers: int = 0,
        cache_size: int = DEFAULT_CAPACITY,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        default_deadline_ms: Optional[float] = DEFAULT_DEADLINE_MS,
        max_queue_depth: Optional[int] = DEFAULT_MAX_QUEUE_DEPTH,
        checkpoint_threshold: int = DEFAULT_CHECKPOINT_THRESHOLD,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if not served:
            raise ValueError("a server needs at least one knowledge base")
        if workers < 0:
            raise ValueError(f"worker count must not be negative, got {workers}")
        if max_batch_size < 1:
            raise ValueError(f"max batch size must be positive, got {max_batch_size}")
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError(
                f"default deadline must be positive, got {default_deadline_ms}"
            )
        if checkpoint_threshold < 1:
            raise ValueError(
                f"checkpoint threshold must be positive, got {checkpoint_threshold}"
            )
        self._names: Dict[str, str] = {}
        self._states: Dict[str, _KBState] = {}
        specs: Dict[str, Dict[str, str]] = {}
        for entry in served:
            if entry.name in self._names:
                raise ValueError(f"duplicate knowledge base name {entry.name!r}")
            if not entry.kb.rewriting.completed:
                raise ValueError(
                    f"knowledge base {entry.name!r} carries an incomplete "
                    "rewriting (timeout or clause limit during compile); "
                    "serving it would silently drop certain answers"
                )
            facts_text = "\n".join(
                format_fact(fact) for fact in sorted(entry.initial_facts, key=str)
            )
            # the safe share key: same Σ + same base facts ⇒ one op log and
            # one set of warm worker sessions, however many names point at it
            facts_digest = hashlib.sha256(facts_text.encode("utf-8")).hexdigest()
            key = f"{entry.kb.fingerprint[:16]}/{facts_digest[:8]}"
            self._names[entry.name] = key
            if key not in self._states:
                self._states[key] = _KBState(
                    key, entry.kb, facts_text, max_queue_depth
                )
                specs[key] = build_kb_spec(entry.kb, entry.initial_facts)
        self._default_key = (
            next(iter(self._states)) if len(self._states) == 1 else None
        )
        self._specs = specs
        self._workers = workers
        self._max_batch_size = max_batch_size
        self._default_deadline_ms = default_deadline_ms
        self._checkpoint_threshold = checkpoint_threshold
        self._fault_plan = fault_plan
        self.cache = AnswerCache(cache_size)
        self._tier = None
        #: pid -> the process counters its latest result or error carried
        self._worker_processes: Dict[str, Dict[str, object]] = {}
        self._closing = False
        self._started_at: Optional[float] = None
        self._tcp_server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ReasoningServer":
        """Create the worker tier and the per-KB drain loops."""
        if self._tier is not None:
            raise ServeError("server already started")
        self._tier = make_worker_tier(self._specs, self._workers, self._fault_plan)
        self._started_at = time.monotonic()
        for state in self._states.values():
            state.drain_task = asyncio.create_task(self._drain(state))
        return self

    async def warm(self) -> None:
        """Pre-materialize every KB on the worker tier before taking traffic.

        Dispatches one empty batch per worker slot per KB; in pool mode
        that warms (up to) every worker process, in inline mode the single
        local session.
        """
        self._require_started()
        slots = max(1, self._tier.describe().get("max_workers", 1))
        tasks = [
            self._tier.answer_batch(
                state.key, list(state.ops), [], None, state.checkpoint_payload()
            )
            for state in self._states.values()
            for _ in range(slots)
        ]
        for payload in await asyncio.gather(*tasks):
            self._note_worker(payload)

    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Listen for NDJSON clients; returns the bound (host, port)."""
        self._require_started()
        if self._tcp_server is not None:
            raise ServeError("TCP listener already running")
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        bound = self._tcp_server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, finish in-flight batches, stop."""
        if self._tier is None or self._closing:
            return
        self._closing = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        for state in self._states.values():
            state.queue.close()
        drains = [
            state.drain_task
            for state in self._states.values()
            if state.drain_task is not None
        ]
        if drains:
            await asyncio.gather(*drains, return_exceptions=True)
        await self._tier.shutdown()

    def _require_started(self) -> None:
        if self._tier is None:
            raise ServeError("server not started; call start() first")

    def local_client(self) -> "LocalClient":
        """An in-process client speaking the protocol without sockets."""
        return LocalClient(self)

    # ------------------------------------------------------------------
    # request handling (shared by LocalClient and the TCP listener)
    # ------------------------------------------------------------------
    async def handle_request(self, message: Dict[str, object]) -> Dict[str, object]:
        """Serve one decoded protocol request; always returns a response."""
        request_id = message.get("id")
        try:
            op = validate_request(message)
        except ProtocolError as exc:
            return error_response(request_id, str(exc))
        if op == "ping":
            return ok_response(request_id, pong=True, protocol=PROTOCOL_VERSION)
        if op == "stats":
            return ok_response(request_id, stats=self.stats())
        self._require_started()
        state = self._resolve_kb(message.get("kb"))
        if state is None:
            known = ", ".join(sorted(self._names)) or "(none)"
            return error_response(
                request_id,
                f"unknown knowledge base {message.get('kb')!r}; serving: {known}",
            )
        if op == "query":
            try:
                query = parse_query(message["query"])
            except (QueryValidationError, ValueError) as exc:
                return error_response(request_id, f"bad query: {exc}")
            pending = PendingRequest(
                kind="query",
                text=str(message["query"]),
                future=asyncio.get_running_loop().create_future(),
                fingerprint=query_fingerprint(query),
                strategy=str(message.get("strategy", "auto")),
            )
        else:
            try:
                parse_facts(message["facts"])
            except ValueError as exc:
                # reject before the op can enter the log: a malformed entry
                # would poison every later worker catch-up
                return error_response(request_id, f"bad facts: {exc}")
            pending = PendingRequest(
                kind=op,
                text=str(message["facts"]),
                future=asyncio.get_running_loop().create_future(),
            )
        try:
            state.queue.submit(pending)
        except QueueOverloadedError as exc:
            # shed at the door: admitting past the high-water mark only
            # grows the backlog's latency, it never grows throughput
            state.stats.record_shed()
            return error_response(request_id, str(exc), kind="overloaded")
        except RuntimeError as exc:
            return error_response(request_id, str(exc))
        deadline_ms = message.get("deadline_ms", self._default_deadline_ms)
        try:
            result = await asyncio.wait_for(
                pending.future,
                timeout=deadline_ms / 1000.0 if deadline_ms is not None else None,
            )
        except asyncio.TimeoutError:
            # wait_for already cancelled the future, so the drain loop will
            # skip this request: a still-queued mutation is never applied,
            # a still-queued query never dispatched, and an in-flight batch
            # simply drops this requester when it lands
            state.stats.record_timeout()
            return error_response(
                request_id,
                f"deadline of {deadline_ms}ms expired before the "
                f"{op} completed",
                kind="timeout",
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: B902 - worker failures become responses
            return error_response(request_id, f"{type(exc).__name__}: {exc}")
        return ok_response(request_id, **result)

    def _resolve_kb(self, name: object) -> Optional[_KBState]:
        if name is None:
            if self._default_key is None:
                return None
            return self._states[self._default_key]
        key = self._names.get(name)
        return self._states.get(key) if key is not None else None

    # ------------------------------------------------------------------
    # the per-KB drain loop
    # ------------------------------------------------------------------
    async def _drain(self, state: _KBState) -> None:
        queue = state.queue
        while True:
            if not len(queue):
                if queue.closed:
                    break
                await queue.wait()
                continue
            if queue.head_kind() in MUTATION_KINDS:
                # barrier: no batch may still be answering at an older
                # generation when the op enters the log, and no worker
                # session may run ahead of a later batch's assigned prefix
                await self._wait_inflight(state)
                await self._apply_mutation(state, queue.pop_mutation())
            else:
                self._dispatch_batch(
                    state, queue.pop_query_batch(self._max_batch_size)
                )
        await self._wait_inflight(state)

    async def _wait_inflight(self, state: _KBState) -> None:
        while state.inflight:
            await asyncio.gather(*list(state.inflight), return_exceptions=True)

    async def _apply_mutation(self, state: _KBState, pending: PendingRequest) -> None:
        if pending.future.done():
            # the requester's deadline expired while the op was still
            # queued: it was never acked and never entered the log, so
            # honoring the timeout means *not* applying it
            return
        state.ops.append((pending.kind, pending.text))
        self.cache.invalidate(state.key)
        state.stats.record_mutation()
        try:
            payload = await self._tier.apply_mutation(
                state.key, list(state.ops), state.checkpoint_payload()
            )
        except Exception as exc:  # noqa: B902 - delivered via the future
            self._note_worker(getattr(exc, "process_counters", {}))
            self._resolve(pending, exception=exc)
            return
        self._note_worker(payload)
        # the op is applied and about to be acked: fold it into the
        # surviving-base-facts snapshot source, then checkpoint once the
        # log is long enough (we are at the barrier — no batch in flight
        # references the prefix this truncates)
        state.fold_mutation(
            pending.kind,
            [format_fact(fact) for fact in parse_facts(pending.text)],
        )
        if len(state.ops) >= self._checkpoint_threshold:
            state.take_checkpoint()
        result = dict(payload["result"])
        result["generation"] = payload["generation"]
        result["store_size"] = payload["store_size"]
        self._resolve(pending, result=result)

    def _dispatch_batch(self, state: _KBState, batch: List[PendingRequest]) -> None:
        # requests whose deadline expired while queued are already answered
        # (with a structured timeout); don't waste an evaluation on them
        batch = [pending for pending in batch if not pending.future.done()]
        if not batch:
            return
        generation = state.generation
        cache_hits = 0
        misses: Dict[str, List[PendingRequest]] = {}
        for pending in batch:
            state.stats.record_strategy(pending.strategy)
            answers = self.cache.get(state.key, pending.fingerprint)
            if answers is not None:
                cache_hits += 1
                self._resolve(
                    pending,
                    result={
                        "query": pending.text,
                        "answers": answers,
                        "count": len(answers),
                        "cached": True,
                        "generation": generation,
                    },
                )
            else:
                misses.setdefault(pending.fingerprint, []).append(pending)
        state.stats.record_batch(len(batch), cache_hits, len(misses))
        if not misses:
            return
        task = asyncio.create_task(
            self._execute_batch(
                state,
                generation,
                list(state.ops),
                state.checkpoint_payload(),
                misses,
            )
        )
        state.inflight.add(task)
        task.add_done_callback(state.inflight.discard)

    async def _execute_batch(
        self,
        state: _KBState,
        generation: int,
        ops: List[Tuple[str, str]],
        checkpoint: Optional[Dict[str, object]],
        misses: Dict[str, List[PendingRequest]],
    ) -> None:
        fingerprints = list(misses)
        texts = [misses[fp][0].text for fp in fingerprints]
        # deduplicated queries evaluate under the strategy of the first
        # request asking for them (answers are strategy-invariant, so the
        # fan-out below is correct for every requester)
        strategies = [misses[fp][0].strategy for fp in fingerprints]
        try:
            payload = await self._tier.answer_batch(
                state.key, ops, texts, strategies, checkpoint
            )
        except Exception as exc:  # noqa: B902 - delivered via the futures
            self._note_worker(getattr(exc, "process_counters", {}))
            for fingerprint in fingerprints:
                for pending in misses[fingerprint]:
                    self._resolve(pending, exception=exc)
            return
        self._note_worker(payload)
        for effective in payload.get("strategies", ()):
            state.evaluated_by_strategy[effective] = (
                state.evaluated_by_strategy.get(effective, 0) + 1
            )
        for fingerprint, answers in zip(fingerprints, payload["answers"]):
            self.cache.put(state.key, fingerprint, generation, answers)
            for pending in misses[fingerprint]:
                self._resolve(
                    pending,
                    result={
                        "query": pending.text,
                        "answers": answers,
                        "count": len(answers),
                        "cached": False,
                        "generation": generation,
                    },
                )

    @staticmethod
    def _resolve(
        pending: PendingRequest,
        result: Optional[Dict[str, object]] = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        if pending.future.done():  # client gave up (disconnected / cancelled)
            return
        if exception is not None:
            pending.future.set_exception(exception)
        else:
            pending.future.set_result(result)

    def _note_worker(self, report: Dict[str, object]) -> None:
        """Keep the process counters a worker result or error carried.

        Each process counts from its start, so the latest report per pid is
        that process's total; a dead process's last report still counts.
        """
        pid = report.get("pid")
        if pid is not None:
            self._worker_processes[str(pid)] = {
                key: report[key]
                for key in ("compile_cache", "session_rebuilds", "quarantined_sessions")
            }

    # ------------------------------------------------------------------
    # stats endpoint
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The JSON stats block (``op: stats``)."""
        kbs: Dict[str, object] = {}
        merged = BatcherStats()
        merged_evaluated_by_strategy: Dict[str, int] = {}
        for name, key in sorted(self._names.items()):
            state = self._states[key]
            kbs[name] = {
                "share_key": state.key,
                "fingerprint": state.kb.fingerprint,
                "rules": len(state.kb.program),
                "generation": state.generation,
                "queued": len(state.queue),
                "queue_depth": len(state.queue),
                "queue_high_water": state.queue.high_water,
                "op_log_length": len(state.ops),
                "checkpoints": state.checkpoints,
                "checkpoint_epoch": state.epoch,
                "batcher": state.stats.snapshot(),
                "evaluated_by_strategy": dict(
                    sorted(state.evaluated_by_strategy.items())
                ),
            }
        for state in self._states.values():
            merged.batches += state.stats.batches
            merged.requests += state.stats.requests
            merged.cache_hits += state.stats.cache_hits
            merged.evaluated += state.stats.evaluated
            merged.dedup_saved += state.stats.dedup_saved
            merged.mutations += state.stats.mutations
            merged.sheds += state.stats.sheds
            merged.timeouts += state.stats.timeouts
            for size, count in state.stats.batch_size_histogram.items():
                merged.batch_size_histogram[size] = (
                    merged.batch_size_histogram.get(size, 0) + count
                )
            for strategy, count in state.stats.requests_by_strategy.items():
                merged.requests_by_strategy[strategy] = (
                    merged.requests_by_strategy.get(strategy, 0) + count
                )
            for strategy, count in state.evaluated_by_strategy.items():
                merged_evaluated_by_strategy[strategy] = (
                    merged_evaluated_by_strategy.get(strategy, 0) + count
                )
        batching = merged.snapshot()
        batching["evaluated_by_strategy"] = dict(
            sorted(merged_evaluated_by_strategy.items())
        )
        workers = dict(self._tier.describe()) if self._tier is not None else {}
        workers["per_process_compile_cache"] = {
            pid: counters["compile_cache"]
            for pid, counters in self._worker_processes.items()
        }
        # the front-end process compiles too (KB loading); report it under
        # its own pid so inline mode still shows a per-process view
        workers.setdefault("frontend_compile_cache", compile_cache_stats())
        processes = self._worker_processes.values()
        resilience = {
            "worker_restarts": workers.get("restarts", 0),
            "task_retries": workers.get("retries", 0),
            "recovery_wall_seconds": workers.get("recovery_wall_seconds", 0.0),
            "worker_rebuilds": sum(
                counters["session_rebuilds"] for counters in processes
            ),
            "quarantined_sessions": sum(
                counters["quarantined_sessions"] for counters in processes
            ),
            "timeouts": merged.timeouts,
            "sheds": merged.sheds,
            "checkpoints": sum(
                state.checkpoints for state in self._states.values()
            ),
        }
        payload = {
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3)
            if self._started_at is not None
            else 0.0,
            "draining": self._closing,
            "kbs": kbs,
            "answer_cache": self.cache.stats(),
            "batching": batching,
            "resilience": resilience,
            "workers": workers,
        }
        if self._fault_plan is not None:
            payload["fault_injection"] = self._fault_plan.stats()
        return payload

    # ------------------------------------------------------------------
    # TCP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: Set[asyncio.Task] = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(self._respond(line, writer, write_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        if self._fault_plan is not None and self._fault_plan.should_drop_request():
            # injected network death: kill the connection mid-request, no
            # response, no FIN-before-RST niceties — the client must fail
            # its in-flight futures fast and reconnect
            writer.transport.abort()
            return
        try:
            message = decode_message(line)
        except ProtocolError as exc:
            response = error_response(None, str(exc))
        else:
            try:
                response = await self.handle_request(message)
            except Exception as exc:  # noqa: B902 - every request gets a line
                # report the traceback as the loop would for a failed task,
                # but still answer: without a line the client waits forever
                asyncio.get_running_loop().call_exception_handler(
                    {"message": "request handler failed", "exception": exc}
                )
                response = error_response(
                    message.get("id"), f"{type(exc).__name__}: {exc}"
                )
        async with write_lock:
            try:
                writer.write(encode_message(response))
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; nothing left to deliver


# ----------------------------------------------------------------------
# clients
# ----------------------------------------------------------------------
class _ClientOps:
    """Protocol helpers shared by the in-process and TCP clients."""

    async def request(self, message: Dict[str, object]) -> Dict[str, object]:
        raise NotImplementedError

    async def _checked(self, message: Dict[str, object]) -> Dict[str, object]:
        response = await self.request(message)
        if not response.get("ok"):
            raise ServeError(
                response.get("error") or "request failed",
                kind=response.get("error_kind"),
            )
        return response

    async def query(
        self,
        query: str,
        kb: Optional[str] = None,
        strategy: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, object]:
        message: Dict[str, object] = {"op": "query", "query": query}
        if kb is not None:
            message["kb"] = kb
        if strategy is not None:
            message["strategy"] = strategy
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        return await self._checked(message)

    async def add_facts(
        self,
        facts: str,
        kb: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, object]:
        message: Dict[str, object] = {"op": "add", "facts": facts}
        if kb is not None:
            message["kb"] = kb
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        return await self._checked(message)

    async def retract_facts(
        self,
        facts: str,
        kb: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, object]:
        message: Dict[str, object] = {"op": "retract", "facts": facts}
        if kb is not None:
            message["kb"] = kb
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        return await self._checked(message)

    async def stats(self) -> Dict[str, object]:
        return (await self._checked({"op": "stats"}))["stats"]

    async def ping(self) -> bool:
        return bool((await self._checked({"op": "ping"})).get("pong"))


class LocalClient(_ClientOps):
    """In-process client: protocol dicts straight into ``handle_request``.

    The client of the tests and the repository benchmark — same code path
    as TCP minus the socket framing.
    """

    def __init__(self, server: ReasoningServer) -> None:
        self._server = server
        self._next_id = 0

    async def request(self, message: Dict[str, object]) -> Dict[str, object]:
        if "id" not in message:
            self._next_id += 1
            message = {**message, "id": self._next_id}
        return await self._server.handle_request(message)


class Client(_ClientOps):
    """NDJSON-over-TCP client with pipelining (responses matched by id).

    Fails fast on a dead connection: every in-flight request gets
    :class:`ClientDisconnectedError` the moment the read loop sees EOF or a
    socket error (no future is ever left dangling), and every *later*
    request on this client raises the same error immediately instead of
    writing into a dead socket.  Reconnect with :meth:`connect` and
    resubmit — the server either never saw or never answered the failed
    requests.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._pending: Dict[object, asyncio.Future] = {}
        self._closed = False
        self._disconnected = False
        self._read_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "Client":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    @property
    def disconnected(self) -> bool:
        """Whether the connection is known dead (reconnect to continue)."""
        return self._disconnected

    async def request(self, message: Dict[str, object]) -> Dict[str, object]:
        if self._disconnected:
            raise ClientDisconnectedError(
                "connection is closed; reconnect and resubmit"
            )
        if "id" not in message:
            self._next_id += 1
            message = {**message, "id": f"c{self._next_id}"}
        future = asyncio.get_running_loop().create_future()
        self._pending[message["id"]] = future
        try:
            self._writer.write(encode_message(message))
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            # the write itself hit a dead socket: fail this request (and
            # everything else in flight) now rather than waiting on a
            # response that can never arrive
            self._pending.pop(message["id"], None)
            self._mark_disconnected(exc)
            raise ClientDisconnectedError(
                f"connection died while sending the request: {exc}"
            ) from exc
        return await future

    async def _read_loop(self) -> None:
        exc: Optional[Exception] = None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = decode_message(line)
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionError, OSError, ProtocolError) as err:
            exc = err
        finally:
            self._mark_disconnected(exc)

    def _mark_disconnected(self, cause: Optional[Exception] = None) -> None:
        self._disconnected = True
        detail = f": {cause}" if cause is not None else ""
        message = (
            "connection closed by client"
            if self._closed
            else f"connection died with the request in flight{detail}; "
            "reconnect and resubmit"
        )
        pending = list(self._pending.values())
        self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(ClientDisconnectedError(message))

    async def close(self) -> None:
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._read_task.cancel()
        try:
            await self._read_task
        except asyncio.CancelledError:
            pass
        self._mark_disconnected()
