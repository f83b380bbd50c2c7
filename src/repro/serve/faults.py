"""Deterministic fault injection for the serving layer.

The resilience tests and the kill-interleaving hypothesis property need
failures that happen *on purpose, at chosen points, reproducibly* — a
worker process dying mid-batch, a task running past its deadline, a TCP
connection dropping mid-request.  :class:`FaultPlan` is that script: one picklable-by
-value description of which dispatches fail and how, consulted by the two
layers that can be made to fail:

* the **worker tier** (:mod:`repro.serve.workers`) asks
  :meth:`FaultPlan.next_task_directive` once per dispatched task, in
  dispatch order.  The returned directive ships to the worker with the
  task: ``"kill"`` makes the worker process ``os._exit`` (indistinguishable
  from a segfault to the :class:`~concurrent.futures.ProcessPoolExecutor`,
  which is the point — it breaks the whole pool), ``"delay:S"`` sleeps the
  worker for S seconds before doing the work (driving tasks past their
  deadlines).  Because the counter advances per *dispatch*, a retried task
  draws a fresh index — a kill listed once kills once, and supervision's
  retry runs clean unless the plan lists the next index too.
* the **protocol layer** (:meth:`~repro.serve.server.ReasoningServer`'s TCP
  ``_respond``) asks :meth:`FaultPlan.should_drop_request` once per
  received request line; ``True`` aborts the connection without a response,
  which is what a mid-request network death looks like to the client.

Determinism matters more than realism here: the CI chaos stage asserts
exact kill counts and oracle-checks every surviving answer, which only
works if the same plan produces the same failures every run.  For
sequential drivers the ``schedule_*_on_next_*`` helpers arm a fault for
exactly the next dispatch without knowing absolute indexes.

``injected`` counts what actually fired (kills/delays/drops); the server
surfaces it in its stats payload as ``fault_injection`` so chaos drivers
can assert the plan ran rather than silently missing its indexes.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, Mapping, Optional

#: worker-side fault directives shipped with a task
KILL_DIRECTIVE = "kill"
DELAY_DIRECTIVE_PREFIX = "delay:"


class FaultPlan:
    """A deterministic script of failures to inject into the serving stack.

    ``kill_on_tasks``/``delay_on_tasks`` are keyed by the zero-based
    dispatch index of worker-tier tasks (batches, mutations, and warm-up
    calls all count, in dispatch order); ``drop_on_requests`` by the
    zero-based index of TCP request lines received across all connections.
    """

    def __init__(
        self,
        kill_on_tasks: Iterable[int] = (),
        delay_on_tasks: Optional[Mapping[int, float]] = None,
        drop_on_requests: Iterable[int] = (),
    ) -> None:
        self.kill_on_tasks = set(kill_on_tasks)
        self.delay_on_tasks: Dict[int, float] = dict(delay_on_tasks or {})
        self.drop_on_requests = set(drop_on_requests)
        self._tasks_dispatched = 0
        self._requests_seen = 0
        #: faults that actually fired, by kind
        self.injected: Dict[str, int] = {"kills": 0, "delays": 0, "drops": 0}

    # ------------------------------------------------------------------
    # worker-tier faults
    # ------------------------------------------------------------------
    def next_task_directive(self) -> Optional[str]:
        """The fault directive for the next dispatched worker task, if any.

        Advances the dispatch counter — call exactly once per task, in
        dispatch order (the worker tiers do).
        """
        index = self._tasks_dispatched
        self._tasks_dispatched += 1
        if index in self.kill_on_tasks:
            self.injected["kills"] += 1
            return KILL_DIRECTIVE
        if index in self.delay_on_tasks:
            self.injected["delays"] += 1
            return f"{DELAY_DIRECTIVE_PREFIX}{self.delay_on_tasks[index]}"
        return None

    def schedule_delay_on_next_task(self, seconds: float) -> None:
        """Arm a delay for the very next dispatched task (sequential drivers)."""
        self.delay_on_tasks[self._tasks_dispatched] = seconds

    def schedule_kill_on_next_task(self) -> None:
        """Arm a kill for the very next dispatched task (sequential drivers)."""
        self.kill_on_tasks.add(self._tasks_dispatched)

    # ------------------------------------------------------------------
    # protocol-layer faults
    # ------------------------------------------------------------------
    def should_drop_request(self) -> bool:
        """Whether to drop the connection for the next received request line."""
        index = self._requests_seen
        self._requests_seen += 1
        if index in self.drop_on_requests:
            self.injected["drops"] += 1
            return True
        return False

    def schedule_drop_on_next_request(self) -> None:
        """Arm a connection drop for the very next received request line."""
        self.drop_on_requests.add(self._requests_seen)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """A JSON-ready view for the server's ``fault_injection`` stats block."""
        return {
            "tasks_dispatched": self._tasks_dispatched,
            "requests_seen": self._requests_seen,
            "kills": self.injected["kills"],
            "delays": self.injected["delays"],
            "drops": self.injected["drops"],
        }


def apply_worker_fault(directive: Optional[str]) -> None:
    """Execute a fault directive inside a worker process.

    ``"kill"`` exits the process without cleanup — to the pool this is a
    worker that segfaulted, so every pending future gets
    :class:`~concurrent.futures.process.BrokenProcessPool` and supervision
    must rebuild.  ``"delay:S"`` blocks the worker for S seconds, the
    injected version of a query that blows its deadline.
    """
    if not directive:
        return
    if directive == KILL_DIRECTIVE:
        os._exit(1)
    if directive.startswith(DELAY_DIRECTIVE_PREFIX):
        time.sleep(float(directive[len(DELAY_DIRECTIVE_PREFIX) :]))
