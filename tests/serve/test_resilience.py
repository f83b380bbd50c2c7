"""Tests for the serving layer's fault tolerance.

Covers the four resilience mechanisms plus the fault-injection harness
that drives them: worker supervision (a killed pool process is rebuilt
and the task retried, mutations exactly-once), per-request deadlines
(structured ``timeout`` errors; an expired queued mutation is never
applied), bounded admission queues (structured ``overloaded`` sheds),
op-log checkpoints (cold catch-up replays only the post-checkpoint
suffix), quarantine of sessions whose catch-up fails mid-suffix, and
fail-fast :class:`ClientDisconnectedError` on dead TCP connections.

Pool-tier tests really fork worker processes and really ``os._exit``
them, so they are kept few and each one asserts several things; every
recovered answer is still checked against a fresh
:meth:`KnowledgeBase.answer_many` oracle.
"""

import asyncio
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import KnowledgeBase
from repro.datalog.query import parse_query
from repro.logic.parser import parse_facts, parse_program
from repro.serve.faults import (
    DELAY_DIRECTIVE_PREFIX,
    KILL_DIRECTIVE,
    FaultPlan,
)
from repro.serve.protocol import encode_answers
from repro.serve.server import (
    Client,
    ClientDisconnectedError,
    ReasoningServer,
    ServedKB,
    ServeError,
)
from repro.serve.workers import PoolWorkerTier, WorkerState, build_kb_spec

SIGMA = """
ACEquipment(?x) -> exists ?y. hasTerminal(?x, ?y), ACTerminal(?y).
ACTerminal(?x) -> Terminal(?x).
hasTerminal(?x, ?z), Terminal(?z) -> Equipment(?x).
"""

FACT_LINES = [
    "ACEquipment(sw1).",
    "ACEquipment(sw2).",
    "hasTerminal(sw1, trm1).",
    "ACTerminal(trm1).",
]


@pytest.fixture(scope="module")
def kb():
    return KnowledgeBase.compile(parse_program(SIGMA).tgds)


def oracle(kb, fact_lines, query_text):
    """Fresh single-threaded answers for one query over the given facts."""
    answers = kb.answer_many(
        [parse_query(query_text)], parse_facts("\n".join(fact_lines))
    )
    return encode_answers(answers[0])


async def make_server(kb, **kwargs):
    server = ReasoningServer(
        [ServedKB("cim", kb, parse_facts("\n".join(FACT_LINES)))], **kwargs
    )
    await server.start()
    return server


class TestFaultPlan:
    def test_directives_fire_by_dispatch_index(self):
        plan = FaultPlan(kill_on_tasks={1}, delay_on_tasks={2: 0.25})
        assert plan.next_task_directive() is None
        assert plan.next_task_directive() == KILL_DIRECTIVE
        assert plan.next_task_directive() == f"{DELAY_DIRECTIVE_PREFIX}0.25"
        assert plan.next_task_directive() is None
        assert plan.injected == {"kills": 1, "delays": 1, "drops": 0}

    def test_schedule_helpers_arm_the_very_next_index(self):
        plan = FaultPlan()
        plan.next_task_directive()
        plan.schedule_kill_on_next_task()
        assert plan.next_task_directive() == KILL_DIRECTIVE
        plan.schedule_delay_on_next_task(0.5)
        assert plan.next_task_directive() == f"{DELAY_DIRECTIVE_PREFIX}0.5"

    def test_drop_counter_is_independent_of_task_counter(self):
        plan = FaultPlan(drop_on_requests={1})
        plan.next_task_directive()
        plan.next_task_directive()
        assert plan.should_drop_request() is False
        assert plan.should_drop_request() is True
        assert plan.should_drop_request() is False
        stats = plan.stats()
        assert stats["drops"] == 1
        assert stats["requests_seen"] == 3
        assert stats["tasks_dispatched"] == 2

    def test_a_kill_listed_once_kills_once(self):
        # the counter advances per dispatch, so a retried task draws a
        # fresh index and runs clean — supervision's safety property
        plan = FaultPlan(kill_on_tasks={0})
        assert plan.next_task_directive() == KILL_DIRECTIVE
        assert plan.next_task_directive() is None


class TestSupervision:
    def test_killed_workers_are_restarted_and_mutations_apply_exactly_once(
        self, kb
    ):
        async def scenario():
            plan = FaultPlan()
            server = await make_server(kb, workers=1, fault_plan=plan)
            try:
                await server.warm()
                client = server.local_client()
                plan.schedule_kill_on_next_task()
                survived = await client.query("Equipment(?x)")
                plan.schedule_kill_on_next_task()
                mutation = await client.add_facts("ACEquipment(sw9).")
                after = await client.query("Equipment(?x)")
                stats = await client.stats()
                return survived, mutation, after, stats
            finally:
                await server.shutdown()

        survived, mutation, after, stats = asyncio.run(scenario())
        # the killed query was retried on a rebuilt pool and still answered
        # correctly at the pre-mutation generation
        assert survived["ok"] is True
        assert survived["generation"] == 0
        assert survived["answers"] == oracle(kb, FACT_LINES, "Equipment(?x)")
        # the mutation's first dispatch died unacked; the retry replayed it
        # from the op log exactly once — generation bumped by one, not two
        assert mutation["ok"] is True
        assert mutation["generation"] == 1
        assert after["generation"] == 1
        assert after["answers"] == oracle(
            kb, FACT_LINES + ["ACEquipment(sw9)."], "Equipment(?x)"
        )
        resilience = stats["resilience"]
        assert resilience["worker_restarts"] >= 2
        assert resilience["task_retries"] >= 2
        assert resilience["recovery_wall_seconds"] > 0
        assert stats["fault_injection"]["kills"] == 2
        assert stats["workers"]["mode"] == "pool"

    def test_a_batch_killed_twice_in_a_row_still_answers(self, kb):
        # warm() dispatches task 0; the query's first dispatch and its first
        # retry both die, and the default budget retries once more
        async def scenario():
            plan = FaultPlan(kill_on_tasks={1, 2})
            server = await make_server(kb, workers=1, fault_plan=plan)
            try:
                await server.warm()
                client = server.local_client()
                answered = await client.query("Equipment(?x)")
                stats = await client.stats()
                return answered, stats
            finally:
                await server.shutdown()

        answered, stats = asyncio.run(scenario())
        assert answered["ok"] is True
        assert answered["answers"] == oracle(kb, FACT_LINES, "Equipment(?x)")
        assert stats["resilience"]["worker_restarts"] >= 2
        assert stats["resilience"]["task_retries"] >= 2
        assert stats["fault_injection"]["kills"] == 2

    def test_a_task_that_keeps_dying_fails_bounded_not_forever(self, kb):
        # consecutive kill indexes exhaust the retry budget: the failure
        # propagates as BrokenProcessPool instead of retrying unbounded
        specs = {"cim": build_kb_spec(kb, parse_facts("\n".join(FACT_LINES)))}
        plan = FaultPlan(kill_on_tasks={0, 1})

        async def scenario():
            tier = PoolWorkerTier(specs, 1, plan, max_task_retries=1)
            try:
                with pytest.raises(BrokenProcessPool):
                    await tier.answer_batch("cim", [], ["Equipment(?x)"])
            finally:
                await tier.shutdown()
            return tier.describe()

        described = asyncio.run(scenario())
        assert described["restarts"] >= 1
        assert described["retries"] == 1
        assert plan.injected["kills"] == 2


class TestDeadlines:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_expired_deadline_is_a_structured_timeout_not_a_hang(self, kb, workers):
        async def scenario():
            plan = FaultPlan()
            server = await make_server(kb, workers=workers, fault_plan=plan)
            try:
                await server.warm()
                client = server.local_client()
                plan.schedule_delay_on_next_task(0.6)
                loop = asyncio.get_running_loop()
                started = loop.time()
                with pytest.raises(ServeError) as excinfo:
                    await client.query("Equipment(?x)", deadline_ms=100)
                elapsed = loop.time() - started
                # let the delayed worker task drain before shutdown
                await asyncio.sleep(0.7)
                stats = await client.stats()
                return excinfo.value, elapsed, stats
            finally:
                await server.shutdown()

        error, elapsed, stats = asyncio.run(scenario())
        assert error.kind == "timeout"
        assert elapsed < 0.5, "the deadline must fire well before the delay"
        assert stats["resilience"]["timeouts"] == 1

    def test_mutation_expiring_while_queued_is_never_applied(self, kb):
        async def scenario():
            plan = FaultPlan()
            server = await make_server(kb, fault_plan=plan)
            try:
                client = server.local_client()
                # stall the drain loop: the delayed batch keeps the mutation
                # barrier waiting, so the add sits in the queue past its
                # deadline and its future is cancelled before it is popped
                plan.schedule_delay_on_next_task(0.5)
                stalled = asyncio.create_task(client.query("Terminal(?x)"))
                await asyncio.sleep(0.05)
                with pytest.raises(ServeError) as excinfo:
                    await client.add_facts("ACEquipment(sw9).", deadline_ms=50)
                await stalled
                after = await client.query("ACEquipment(?x)")
                return excinfo.value, after
            finally:
                await server.shutdown()

        error, after = asyncio.run(scenario())
        assert error.kind == "timeout"
        # honoring the timeout means NOT applying the op: the generation
        # never advanced and the fact is not there
        assert after["generation"] == 0
        assert after["answers"] == oracle(kb, FACT_LINES, "ACEquipment(?x)")

    def test_constructor_rejects_nonpositive_deadline_and_threshold(self, kb):
        facts = parse_facts("\n".join(FACT_LINES))
        with pytest.raises(ValueError, match="worker count"):
            ReasoningServer([ServedKB("cim", kb, facts)], workers=-1)
        with pytest.raises(ValueError, match="deadline"):
            ReasoningServer(
                [ServedKB("cim", kb, facts)], default_deadline_ms=0
            )
        with pytest.raises(ValueError, match="checkpoint threshold"):
            ReasoningServer(
                [ServedKB("cim", kb, facts)], checkpoint_threshold=0
            )


class TestBackpressure:
    def test_overloaded_queue_sheds_with_a_structured_error(self, kb):
        async def scenario():
            plan = FaultPlan()
            server = await make_server(
                kb, fault_plan=plan, max_queue_depth=2
            )
            try:
                clients = [server.local_client() for _ in range(3)]
                # stall the drain loop at the mutation barrier so admitted
                # requests accumulate instead of being popped immediately
                plan.schedule_delay_on_next_task(0.5)
                stall = asyncio.create_task(
                    clients[0].add_facts("ACEquipment(sw9).")
                )
                await asyncio.sleep(0.05)
                results = await asyncio.gather(
                    *[
                        clients[i % 3].query("Equipment(?x)")
                        for i in range(8)
                    ],
                    return_exceptions=True,
                )
                await stall
                stats = await clients[0].stats()
                return results, stats
            finally:
                await server.shutdown()

        results, stats = asyncio.run(scenario())
        shed = [
            r
            for r in results
            if isinstance(r, ServeError) and r.kind == "overloaded"
        ]
        answered = [r for r in results if isinstance(r, dict)]
        assert shed, "a depth-2 queue under an 8-query flood must shed"
        assert len(shed) + len(answered) == 8
        # the survivors still answer correctly at the post-mutation state
        for response in answered:
            assert response["answers"] == oracle(
                kb, FACT_LINES + ["ACEquipment(sw9)."], "Equipment(?x)"
            )
        assert stats["resilience"]["sheds"] == len(shed)
        assert stats["kbs"]["cim"]["queue_high_water"] <= 2


class TestCheckpoints:
    MUTATIONS = [
        ("add", "ACEquipment(sw9)."),
        ("add", "ACEquipment(swA)."),
        ("retract", "ACEquipment(sw9)."),
        ("add", "hasTerminal(sw2, trm2)."),
        ("add", "ACTerminal(trm2)."),
    ]

    def surviving_lines(self):
        lines = set(FACT_LINES)
        for kind, fact in self.MUTATIONS:
            if kind == "add":
                lines.add(fact)
            else:
                lines.discard(fact)
        return sorted(lines)

    def run_mutations(self, kb, threshold, workers=0):
        async def scenario():
            plan = FaultPlan()
            server = await make_server(
                kb, workers=workers, checkpoint_threshold=threshold, fault_plan=plan
            )
            try:
                await server.warm()
                client = server.local_client()
                for index, (kind, fact) in enumerate(self.MUTATIONS):
                    if workers and index == threshold:
                        # the first op after the first checkpoint kills its
                        # worker, so the replacement builds from the
                        # checkpoint that the retried task ships
                        plan.schedule_kill_on_next_task()
                    if kind == "add":
                        await client.add_facts(fact)
                    else:
                        await client.retract_facts(fact)
                answered = await client.query("Equipment(?x)")
                stats = await client.stats()
                key = server._names["cim"]
                state = server._states[key]
                return (
                    answered,
                    stats,
                    key,
                    list(state.ops),
                    state.checkpoint_payload(),
                    dict(server._specs),
                )
            finally:
                await server.shutdown()

        return asyncio.run(scenario())

    @pytest.mark.parametrize("workers", [0, 1])
    def test_checkpoints_truncate_the_log_without_changing_answers(self, kb, workers):
        answered, stats, *_ = self.run_mutations(kb, threshold=2, workers=workers)
        kb_stats = stats["kbs"]["cim"]
        assert kb_stats["generation"] == len(self.MUTATIONS)
        assert kb_stats["checkpoints"] >= 2
        assert kb_stats["checkpoint_epoch"] >= 2
        assert kb_stats["op_log_length"] < len(self.MUTATIONS)
        assert stats["resilience"]["checkpoints"] == kb_stats["checkpoints"]
        assert answered["answers"] == oracle(
            kb, self.surviving_lines(), "Equipment(?x)"
        )
        # the warm inline session stood exactly at each checkpoint
        # generation (mutations are barriers), so it adopted every new
        # epoch in place — no rebuild, no quarantine
        assert stats["resilience"]["worker_rebuilds"] == 0
        assert stats["resilience"]["quarantined_sessions"] == 0
        assert stats["fault_injection"]["kills"] == (1 if workers else 0)
        assert stats["resilience"]["worker_restarts"] == (1 if workers else 0)

    def test_a_pool_session_behind_a_checkpoint_rebuilds_and_is_counted(self, kb):
        # each pool process counts its own rebuilds, and only the results
        # it returns carry them to the server's ledger
        async def scenario():
            plan = FaultPlan()
            server = await make_server(
                kb, workers=2, checkpoint_threshold=2, fault_plan=plan
            )
            try:
                # a delayed warm-up task holds one process, so the other
                # process takes the second task: both hold a session
                plan.schedule_delay_on_next_task(0.4)
                await server.warm()
                client = server.local_client()
                # each mutation runs on one process, so after the second
                # one (and the checkpoint it triggers) a session is behind
                for _, fact in self.MUTATIONS[:2]:
                    await client.add_facts(fact)
                plan.schedule_delay_on_next_task(0.4)
                await server.warm()
                answered = await client.query("Equipment(?x)")
                return answered, await client.stats()
            finally:
                await server.shutdown()

        answered, stats = asyncio.run(scenario())
        assert stats["kbs"]["cim"]["checkpoints"] == 1
        assert stats["resilience"]["worker_rebuilds"] >= 1
        assert stats["resilience"]["quarantined_sessions"] == 0
        assert answered["answers"] == oracle(
            kb,
            FACT_LINES + [fact for _, fact in self.MUTATIONS[:2]],
            "Equipment(?x)",
        )

    def test_cold_worker_replays_less_than_the_full_history(self, kb):
        # the acceptance criterion: after checkpointing, a brand-new worker
        # builds from the snapshot and replays only the post-checkpoint
        # suffix, strictly fewer ops than the total mutation count
        _, _, key, ops, checkpoint, specs = self.run_mutations(kb, threshold=2)
        assert checkpoint is not None
        cold = WorkerState(specs)
        payload = cold.answer_batch(key, ops, ["Equipment(?x)"], None, checkpoint)
        assert payload["ops_replayed"] == len(ops) < len(self.MUTATIONS)
        assert payload["generation"] == len(self.MUTATIONS)
        assert payload["answers"][0] == oracle(
            kb, self.surviving_lines(), "Equipment(?x)"
        )

    def test_stale_epoch_reference_is_rejected(self, kb):
        # a task may never reference an epoch the server superseded
        _, _, key, ops, checkpoint, specs = self.run_mutations(kb, threshold=2)
        state = WorkerState(specs)
        state.answer_batch(key, ops, ["Equipment(?x)"], None, checkpoint)
        stale = dict(checkpoint)
        stale["epoch"] = checkpoint["epoch"] - 1
        with pytest.raises(RuntimeError, match="epoch"):
            state.answer_batch(key, ops, ["Equipment(?x)"], None, stale)


class TestQuarantine:
    def test_catch_up_failing_mid_suffix_quarantines_the_session(self, kb):
        # regression: a malformed op used to leave the session half-advanced
        # with stale bookkeeping; it must be dropped and rebuilt instead
        specs = {"cim": build_kb_spec(kb, parse_facts("\n".join(FACT_LINES)))}
        state = WorkerState(specs)
        good_op = ("add", "ACEquipment(sw9).")
        state.apply_mutation("cim", [good_op])
        with pytest.raises(ValueError):
            state.apply_mutation("cim", [good_op, ("add", "NotAFact(")])
        assert state.quarantined == 1
        # the poisoned session is gone: the next task rebuilds from the
        # spec and replays the (valid) log, serving correct answers
        payload = state.answer_batch("cim", [good_op], ["ACEquipment(?x)"])
        assert payload["ops_replayed"] == 1
        assert payload["generation"] == 1
        assert payload["answers"][0] == oracle(
            kb, FACT_LINES + ["ACEquipment(sw9)."], "ACEquipment(?x)"
        )

    @pytest.mark.parametrize("workers", [0, 1])
    def test_a_quarantine_reaches_the_ledger_before_the_next_task(self, kb, workers):
        # the failed task's error carries its process counters: the ledger
        # must not wait for that process to finish another task
        async def scenario():
            server = await make_server(kb, workers=workers)
            try:
                await server.warm()
                client = server.local_client()
                await client.add_facts("ACEquipment(sw9).")
                # the front end rejects malformed facts before they enter
                # the log, so plant one past the op every session applied
                state = server._states[server._names["cim"]]
                state.ops.append(("add", "NotAFact("))
                with pytest.raises(ServeError, match="ParseError"):
                    await client.query("Equipment(?x)")
                return await client.stats()
            finally:
                await server.shutdown()

        stats = asyncio.run(scenario())
        assert stats["resilience"]["quarantined_sessions"] == 1
        assert stats["resilience"]["worker_rebuilds"] == 0


class TestClientDisconnect:
    def test_dropped_connection_fails_fast_and_reconnect_works(self, kb):
        async def scenario():
            plan = FaultPlan()
            server = await make_server(kb, fault_plan=plan)
            try:
                host, port = await server.start_tcp()
                client = await Client.connect(host, port)
                plan.schedule_drop_on_next_request()
                # two pipelined requests: the drop aborts the connection, so
                # BOTH in-flight futures must fail promptly (no leaks)
                results = await asyncio.gather(
                    client.query("Equipment(?x)"),
                    client.query("Terminal(?x)"),
                    return_exceptions=True,
                )
                disconnected = client.disconnected
                # later requests fail immediately without touching the wire
                with pytest.raises(ClientDisconnectedError):
                    await asyncio.wait_for(
                        client.query("Equipment(?x)"), timeout=1.0
                    )
                await client.close()
                # a fresh connection serves normally
                fresh = await Client.connect(host, port)
                try:
                    recovered = await fresh.query("Equipment(?x)")
                finally:
                    await fresh.close()
                return results, disconnected, recovered, plan.injected
            finally:
                await server.shutdown()

        results, disconnected, recovered, injected = asyncio.run(scenario())
        assert len(results) == 2
        for result in results:
            assert isinstance(result, ClientDisconnectedError)
            assert result.kind == "disconnected"
        assert disconnected is True
        assert injected["drops"] == 1
        assert recovered["answers"] == oracle(kb, FACT_LINES, "Equipment(?x)")

    def test_closing_the_client_fails_pending_requests(self, kb):
        async def scenario():
            plan = FaultPlan()
            server = await make_server(kb, fault_plan=plan)
            try:
                host, port = await server.start_tcp()
                client = await Client.connect(host, port)
                # stall the server so the request is still pending when the
                # client closes its end
                plan.schedule_delay_on_next_task(0.4)
                pending = asyncio.create_task(client.query("Equipment(?x)"))
                await asyncio.sleep(0.05)
                await client.close()
                with pytest.raises(ClientDisconnectedError):
                    await pending
                await asyncio.sleep(0.4)  # drain the delayed worker task
            finally:
                await server.shutdown()

        asyncio.run(scenario())
