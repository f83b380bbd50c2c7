"""The CPU-bound worker tier: warm reasoning sessions behind an executor.

Materialization, delta propagation, and query evaluation are CPU-bound, so
the asyncio front end never runs them on the event loop.  Two executors
implement one interface:

* :class:`InlineWorkerTier` — the work runs in this process on a thread
  (``asyncio.to_thread``), serialized by a lock (the fact-store's lazily
  built indexes are not thread-safe).  Zero setup cost; the default for
  tests, the repository benchmark, and single-core boxes.
* :class:`PoolWorkerTier` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  whose workers each hold *warm sessions*: the first task touching a KB in
  a worker process materializes it once, and every later task reuses the
  live session.  Knowledge bases are shipped to workers as ``repro-kb/v2``
  JSON payloads (compiled rules travel, saturation never re-runs — each
  worker pays one plan-compile + materialize, served from its process-local
  caches; see the fork-semantics notes in :mod:`repro.kb.cache`).

Consistency across workers uses an **op log**: the server appends every
mutation (as parseable fact text) to a per-KB ordered log and sends the
log prefix with each task.  A worker session remembers how many ops it has
applied and catches up on the missing suffix before answering, so any
worker — no matter which subset of earlier tasks it happened to run —
reaches exactly the generation the server assigned to the batch.  Sessions
only move forward; the server's barrier around mutations (see
:mod:`repro.serve.batcher`) guarantees no task ever needs a generation a
worker has already passed.

**Checkpoints** keep catch-up O(delta): once the server's op log passes a
threshold it snapshots the surviving base facts, truncates the log, and
bumps a *checkpoint epoch* (see ``_KBState.take_checkpoint`` in
:mod:`repro.serve.server`).  Tasks then carry ``{"epoch", "base",
"facts"}``; a warm session already standing exactly at the checkpoint
generation adopts the new epoch in place (no rebuild, its state is by
construction the checkpoint's fixpoint), while a session behind it — or a
brand-new worker process — rebuilds from the checkpoint facts and replays
only the post-checkpoint suffix instead of the whole mutation history.
A session whose catch-up *fails mid-suffix* is quarantined (dropped and
rebuilt on the next task) rather than left half-advanced; serving from a
store that applied part of an op batch would break sequential consistency.

**Supervision**: :class:`PoolWorkerTier` survives worker death.  A killed
or segfaulted worker process breaks the whole executor
(:class:`~concurrent.futures.process.BrokenProcessPool` for every pending
future), so the tier rebuilds the executor once and retries the failed
tasks with capped exponential backoff.  The retry is safe by construction:
query batches are idempotent reads against the op-log prefix, and a
mutation task that died unacked re-runs against *fresh* worker sessions
that replay it from the log exactly once — the log, not the worker, is
the source of truth.  ``describe()`` reports ``restarts`` / ``retries`` /
``recovery_wall_seconds`` for the server's ``resilience`` stats block.

Worker results are JSON-ready dicts (answers pre-encoded via
:func:`repro.serve.protocol.encode_answers`) so the pool pickles plain
strings and ints, never interned term objects.  Each result also carries
the worker's pid, its per-process compile-cache counters
(:func:`repro.kb.cache.compile_cache_stats`), its ``session_rebuilds`` and
``quarantined_sessions`` so far (the server sums the latest per pid), and
``ops_replayed`` — how many log entries this task's catch-up actually
applied, the counter the checkpoint tests pin down.  A task that fails
raises with the same process counters in the exception's
``process_counters``, so a quarantine is counted before the next task.
"""

from __future__ import annotations

import asyncio
import functools
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from ..datalog.query import QueryOptions, parse_query
from ..kb.cache import compile_cache_stats
from ..logic.parser import parse_facts
from .faults import KILL_DIRECTIVE, FaultPlan, apply_worker_fault
from .protocol import encode_answers, mutation_result

#: an op-log entry: ("add" | "retract", facts text)
OpLog = Sequence[Tuple[str, str]]

#: a checkpoint shipped with a task: {"epoch": int, "base": int, "facts": str}
#: (``None`` means epoch 0 — build from the original spec facts)
Checkpoint = Optional[Dict[str, object]]

#: how many times a task broken by worker death is retried before the
#: failure propagates to the requesters (each retry runs on a rebuilt pool)
DEFAULT_MAX_TASK_RETRIES = 3

#: first retry backoff; doubles per attempt, capped at _BACKOFF_CAP_SECONDS
_BACKOFF_BASE_SECONDS = 0.05
_BACKOFF_CAP_SECONDS = 2.0


def _pool_mp_context():
    """The multiprocessing context for worker pools: never plain ``fork``.

    A forked worker inherits every open file descriptor — including the
    server's live TCP connections when the pool is *rebuilt* after a crash
    (the original pool predates the listener, a rebuilt one does not).  A
    connection socket duplicated into a worker never delivers EOF to the
    client when the server closes its copy, so disconnects would silently
    stop propagating after the first supervision restart.  ``forkserver``
    forks workers from a clean early-started template process instead
    (``spawn`` where unavailable), so rebuilds inherit nothing.
    """
    try:
        context = multiprocessing.get_context("forkserver")
        # preload the worker module in the template so every (re)built
        # worker inherits the import work instead of redoing it
        context.set_forkserver_preload([__name__])
        return context
    except ValueError:
        return multiprocessing.get_context("spawn")


def build_kb_spec(kb, initial_facts) -> Dict[str, str]:
    """A picklable description of one served KB (payload JSON + seed facts).

    ``kb`` is a :class:`repro.api.KnowledgeBase`; the spec round-trips its
    compiled rewriting through the ``repro-kb/v2`` payload so worker
    processes reconstruct it without re-running saturation.
    """
    from ..kb.format import knowledge_base_payload
    from ..logic.printer import format_fact

    payload = knowledge_base_payload(kb.tgds, kb.rewriting)
    facts_text = "\n".join(format_fact(fact) for fact in sorted(initial_facts, key=str))
    return {"kb_json": json.dumps(payload), "facts": facts_text}


class _SessionEntry:
    """One warm session plus the bookkeeping that keeps it consistent."""

    __slots__ = ("session", "applied", "epoch", "base")

    def __init__(self, session, epoch: int, base: int) -> None:
        self.session = session
        #: ops applied from the *current* (post-checkpoint) log
        self.applied = 0
        #: checkpoint epoch this session was built from / adopted
        self.epoch = epoch
        #: ops folded into that checkpoint; absolute generation = base + applied
        self.base = base

    @property
    def generation(self) -> int:
        return self.base + self.applied


def _reporting_process_counters(task):
    """Make a :class:`WorkerState` task report its process's counters.

    The result gains them as keys; an exception the task raises carries
    them in ``process_counters`` (a pool pickles exception attributes back
    with the exception).
    """

    @functools.wraps(task)
    def run(state: "WorkerState", *args, **kwargs) -> Dict[str, object]:
        try:
            result = task(state, *args, **kwargs)
        except Exception as exc:
            exc.process_counters = state._process_counters()
            raise
        result.update(state._process_counters())
        return result

    return run


class WorkerState:
    """Warm sessions for a set of KB specs, caught up against an op log.

    One instance lives in each worker process (module global, installed by
    the pool initializer) and one inside :class:`InlineWorkerTier`.
    """

    def __init__(self, specs: Dict[str, Dict[str, str]]) -> None:
        self._specs = specs
        self._sessions: Dict[str, _SessionEntry] = {}
        #: sessions rebuilt because a newer checkpoint superseded them
        self.rebuilds = 0
        #: sessions dropped because their catch-up failed mid-suffix
        self.quarantined = 0

    def _build(self, name: str, checkpoint: Checkpoint) -> _SessionEntry:
        from ..api import KnowledgeBase
        from ..kb.format import parse_kb_text

        spec = self._specs[name]
        tgds, rewriting = parse_kb_text(spec["kb_json"])
        kb = KnowledgeBase(tgds=tgds, rewriting=rewriting)
        if checkpoint is not None:
            facts_text = str(checkpoint["facts"])
            epoch, base = int(checkpoint["epoch"]), int(checkpoint["base"])
        else:
            facts_text, epoch, base = spec["facts"], 0, 0
        session = kb.session(parse_facts(facts_text))
        entry = _SessionEntry(session, epoch, base)
        self._sessions[name] = entry
        return entry

    def _ensure(self, name: str, checkpoint: Checkpoint = None) -> _SessionEntry:
        epoch = int(checkpoint["epoch"]) if checkpoint is not None else 0
        base = int(checkpoint["base"]) if checkpoint is not None else 0
        entry = self._sessions.get(name)
        if entry is None:
            return self._build(name, checkpoint)
        if entry.epoch == epoch:
            return entry
        if entry.epoch > epoch:
            # a task may never reference an epoch the server has superseded
            # (checkpoints happen at the mutation barrier, after in-flight
            # batches drain), so an older epoch here means a protocol bug
            raise RuntimeError(
                f"task for {name!r} references checkpoint epoch {epoch} but "
                f"this session is already at epoch {entry.epoch}"
            )
        if entry.generation == base:
            # this warm session *is* the checkpoint state: its fixpoint was
            # computed from exactly the ops the checkpoint folded in, so it
            # adopts the new epoch without paying a rebuild
            entry.epoch = epoch
            entry.base = base
            entry.applied = 0
            return entry
        # behind the checkpoint and the pre-checkpoint ops are gone from the
        # log — rebuild from the checkpoint facts
        del self._sessions[name]
        self.rebuilds += 1
        return self._build(name, checkpoint)

    def _catch_up(self, name: str, entry: _SessionEntry, ops: OpLog):
        """Apply the op-log suffix this session has not seen.

        Returns ``(last_result, ops_replayed)`` where ``last_result`` is the
        result of the final op applied (``None`` if already caught up).
        Progress is committed per op; if an op raises mid-suffix the session
        is *quarantined* — dropped so the next task rebuilds it — because a
        half-advanced store with stale ``applied`` bookkeeping would serve
        answers from a generation that never existed.
        """
        last = None
        replayed = 0
        try:
            for kind, facts_text in list(ops)[entry.applied :]:
                delta = parse_facts(facts_text)
                if kind == "add":
                    last = entry.session.add_facts(delta)
                else:
                    last = entry.session.retract_facts(delta)
                entry.applied += 1
                replayed += 1
        except Exception:
            self._sessions.pop(name, None)
            self.quarantined += 1
            raise
        return last, replayed

    @_reporting_process_counters
    def answer_batch(
        self,
        name: str,
        ops: OpLog,
        query_texts: Sequence[str],
        strategies: Optional[Sequence[str]] = None,
        checkpoint: Checkpoint = None,
    ) -> Dict[str, object]:
        """Catch up to the op-log prefix, evaluate the (deduplicated)
        queries, return encoded answers.

        ``strategies`` (aligned with ``query_texts``, ``"auto"`` when
        absent) selects per-query evaluation; the result's ``strategies``
        field reports the *effective* strategy each query resolved to —
        worker sessions are warm, so ``auto`` resolves to ``materialized``
        here and only an explicit ``"demand"`` runs the magic-sets path.
        """
        entry = self._ensure(name, checkpoint)
        _, replayed = self._catch_up(name, entry, ops)
        session = entry.session
        queries = [parse_query(text) for text in query_texts]
        if strategies is None:
            strategies = ["auto"] * len(queries)
        answer_sets: List[object] = [None] * len(queries)
        effective: List[str] = [""] * len(queries)
        by_strategy: Dict[str, List[int]] = {}
        for index, strategy in enumerate(strategies):
            by_strategy.setdefault(strategy, []).append(index)
        for strategy, indexes in by_strategy.items():
            options = QueryOptions(strategy=strategy)
            for index in indexes:
                effective[index] = session.resolve_strategy(queries[index], options)
            answers = session.answer_many(
                [queries[index] for index in indexes], options=options
            )
            for index, answer_set in zip(indexes, answers):
                answer_sets[index] = answer_set
        return {
            "answers": [encode_answers(answers) for answers in answer_sets],
            "strategies": effective,
            "generation": entry.generation,
            "ops_replayed": replayed,
            "store_size": len(session),
        }

    @_reporting_process_counters
    def apply_mutation(
        self, name: str, ops: OpLog, checkpoint: Checkpoint = None
    ) -> Dict[str, object]:
        """Catch up through the log, whose final entry is the requested
        mutation; return that op's counters."""
        entry = self._ensure(name, checkpoint)
        last, replayed = self._catch_up(name, entry, ops)
        if last is None:
            # this session was already past the requested op (impossible
            # under the server's mutation barrier, but stay honest)
            raise RuntimeError(
                f"worker session for {name!r} is ahead of the requested op log"
            )
        kind = ops[-1][0]
        return {
            "result": mutation_result(kind, last),
            "generation": entry.generation,
            "ops_replayed": replayed,
            "store_size": len(entry.session),
        }

    def _process_counters(self) -> Dict[str, object]:
        """What every task reports about the process that ran it."""
        return {
            "pid": os.getpid(),
            "compile_cache": compile_cache_stats(),
            "session_rebuilds": self.rebuilds,
            "quarantined_sessions": self.quarantined,
        }


# ----------------------------------------------------------------------
# process-pool plumbing (module-level so the pool can pickle it)
# ----------------------------------------------------------------------
_POOL_STATE: Optional[WorkerState] = None


def _pool_initializer(specs: Dict[str, Dict[str, str]]) -> None:
    global _POOL_STATE
    _POOL_STATE = WorkerState(specs)


def _pool_answer_batch(
    name: str,
    ops: List[Tuple[str, str]],
    texts: List[str],
    strategies: Optional[List[str]],
    checkpoint: Checkpoint,
    fault: Optional[str],
):
    apply_worker_fault(fault)
    return _POOL_STATE.answer_batch(name, ops, texts, strategies, checkpoint)


def _pool_apply_mutation(
    name: str,
    ops: List[Tuple[str, str]],
    checkpoint: Checkpoint,
    fault: Optional[str],
):
    apply_worker_fault(fault)
    return _POOL_STATE.apply_mutation(name, ops, checkpoint)


# ----------------------------------------------------------------------
# the two executors
# ----------------------------------------------------------------------
class InlineWorkerTier:
    """Run worker tasks in-process on a thread, one at a time.

    Honors ``delay`` fault directives (the worker thread sleeps while
    holding the serialization lock, exactly how a slow task starves the
    inline tier); a ``kill`` directive becomes an injected error response —
    the inline tier shares the server process, so actually dying is not a
    survivable fault to exercise here (that is the pool tier's chaos test).
    """

    def __init__(
        self,
        specs: Dict[str, Dict[str, str]],
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self._state = WorkerState(specs)
        self._lock = asyncio.Lock()
        self._fault_plan = fault_plan

    async def _apply_fault(self) -> None:
        if self._fault_plan is None:
            return
        directive = self._fault_plan.next_task_directive()
        if directive == KILL_DIRECTIVE:
            raise RuntimeError(
                "injected worker kill (inline tier runs in the server "
                "process; use the pool tier to exercise real worker death)"
            )
        if directive is not None:
            # block the (locked) worker path the way a slow task would
            await asyncio.to_thread(apply_worker_fault, directive)

    async def answer_batch(
        self, name, ops, texts, strategies=None, checkpoint=None
    ) -> Dict[str, object]:
        async with self._lock:
            await self._apply_fault()
            return await asyncio.to_thread(
                self._state.answer_batch,
                name,
                list(ops),
                list(texts),
                list(strategies) if strategies is not None else None,
                checkpoint,
            )

    async def apply_mutation(self, name, ops, checkpoint=None) -> Dict[str, object]:
        async with self._lock:
            await self._apply_fault()
            return await asyncio.to_thread(
                self._state.apply_mutation, name, list(ops), checkpoint
            )

    async def shutdown(self) -> None:
        return None

    def describe(self) -> Dict[str, object]:
        return {
            "mode": "inline",
            "max_workers": 1,
            "restarts": 0,
            "retries": 0,
            "recovery_wall_seconds": 0.0,
        }


class PoolWorkerTier:
    """Run worker tasks on a ProcessPoolExecutor with warm sessions.

    Supervised: a dead worker process breaks the executor for every
    pending future (``BrokenProcessPool``), so the tier rebuilds it once
    (serialized by a lock — concurrent casualties of the same crash share
    one rebuild) and retries each failed task with capped exponential
    backoff, up to ``max_task_retries`` times.  Retries are safe: batches
    are idempotent reads of the op-log prefix, and an unacked mutation
    re-runs against fresh sessions that replay it from the log exactly
    once.  A task that keeps dying (e.g. a fault plan listing consecutive
    kill indexes) eventually propagates ``BrokenProcessPool`` to its
    requesters as an error response — bounded failure, never a hang.
    """

    def __init__(
        self,
        specs: Dict[str, Dict[str, str]],
        max_workers: int,
        fault_plan: Optional[FaultPlan] = None,
        max_task_retries: int = DEFAULT_MAX_TASK_RETRIES,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"worker count must be positive, got {max_workers}")
        if max_task_retries < 0:
            raise ValueError(
                f"max task retries must be non-negative, got {max_task_retries}"
            )
        self._specs = specs
        self._max_workers = max_workers
        self._fault_plan = fault_plan
        self._max_task_retries = max_task_retries
        self._restarts = 0
        self._retries = 0
        self._recovery_wall = 0.0
        self._rebuild_lock: Optional[asyncio.Lock] = None
        self._mp_context = _pool_mp_context()
        self._executor = self._new_executor()

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self._max_workers,
            mp_context=self._mp_context,
            initializer=_pool_initializer,
            initargs=(self._specs,),
        )

    async def _rebuild(self, broken: ProcessPoolExecutor) -> None:
        if self._rebuild_lock is None:
            self._rebuild_lock = asyncio.Lock()
        async with self._rebuild_lock:
            if self._executor is not broken:
                return  # another casualty of the same crash already rebuilt
            start = time.perf_counter()
            # the pool is broken — its processes are dead or dying; don't
            # block the event loop waiting on their corpses
            broken.shutdown(wait=False)
            self._executor = self._new_executor()
            self._restarts += 1
            self._recovery_wall += time.perf_counter() - start

    async def _submit(self, fn, *args) -> Dict[str, object]:
        loop = asyncio.get_running_loop()
        backoff = _BACKOFF_BASE_SECONDS
        attempt = 0
        while True:
            executor = self._executor
            fault = (
                self._fault_plan.next_task_directive()
                if self._fault_plan is not None
                else None
            )
            try:
                return await loop.run_in_executor(executor, fn, *args, fault)
            except BrokenProcessPool:
                attempt += 1
                if attempt > self._max_task_retries:
                    raise
                await self._rebuild(executor)
                self._retries += 1
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, _BACKOFF_CAP_SECONDS)

    async def answer_batch(
        self, name, ops, texts, strategies=None, checkpoint=None
    ) -> Dict[str, object]:
        return await self._submit(
            _pool_answer_batch,
            name,
            list(ops),
            list(texts),
            list(strategies) if strategies is not None else None,
            checkpoint,
        )

    async def apply_mutation(self, name, ops, checkpoint=None) -> Dict[str, object]:
        return await self._submit(_pool_apply_mutation, name, list(ops), checkpoint)

    async def shutdown(self) -> None:
        # shutdown(wait=True) blocks; keep the event loop responsive
        await asyncio.to_thread(self._executor.shutdown, True)

    def describe(self) -> Dict[str, object]:
        return {
            "mode": "pool",
            "max_workers": self._max_workers,
            "max_task_retries": self._max_task_retries,
            "restarts": self._restarts,
            "retries": self._retries,
            "recovery_wall_seconds": round(self._recovery_wall, 6),
        }


def make_worker_tier(
    specs: Dict[str, Dict[str, str]],
    workers: int,
    fault_plan: Optional[FaultPlan] = None,
) -> "InlineWorkerTier | PoolWorkerTier":
    """``workers == 0`` → inline tier; ``workers >= 1`` → process pool."""
    if workers == 0:
        return InlineWorkerTier(specs, fault_plan)
    return PoolWorkerTier(specs, workers, fault_plan)
