"""Tests for the long-lived reasoning server: batching, caching, consistency.

Every asyncio scenario runs through ``asyncio.run`` inside a plain sync
test so the suite needs no async pytest plugin.  Correctness is always
checked the same way: answers served concurrently must equal a fresh
single-threaded :meth:`KnowledgeBase.answer_many` at the generation the
server stamped on the response.
"""

import asyncio

import pytest

from repro.api import KnowledgeBase
from repro.datalog.query import parse_query
from repro.logic.parser import parse_facts, parse_program
from repro.serve.protocol import decode_message, encode_answers, encode_message
from repro.serve.server import (
    Client,
    LocalClient,
    ReasoningServer,
    ServedKB,
    ServeError,
)

SIGMA = """
ACEquipment(?x) -> exists ?y. hasTerminal(?x, ?y), ACTerminal(?y).
ACTerminal(?x) -> Terminal(?x).
hasTerminal(?x, ?z), Terminal(?z) -> Equipment(?x).
"""

FACT_LINES = [
    "ACEquipment(sw1).",
    "ACEquipment(sw2).",
    "ACEquipment(sw3).",
    "hasTerminal(sw1, trm1).",
    "ACTerminal(trm1).",
]

QUERY_TEXTS = [
    "Equipment(?x)",
    "Terminal(?x)",
    "ACEquipment(?x), hasTerminal(?x, ?y)",
    "hasTerminal(?x, ?y)",
]


@pytest.fixture(scope="module")
def kb():
    return KnowledgeBase.compile(parse_program(SIGMA).tgds)


def oracle_answers(kb, fact_lines):
    """Fresh single-threaded answers for every test query, by query text."""
    queries = [parse_query(text) for text in QUERY_TEXTS]
    answers = kb.answer_many(queries, parse_facts("\n".join(fact_lines)))
    return {
        text: encode_answers(answer_set)
        for text, answer_set in zip(QUERY_TEXTS, answers)
    }


async def make_server(kb, fact_lines=FACT_LINES, **kwargs):
    server = ReasoningServer(
        [ServedKB("cim", kb, parse_facts("\n".join(fact_lines)))], **kwargs
    )
    await server.start()
    return server


class TestBasicServing:
    def test_single_query_matches_fresh_session(self, kb):
        async def scenario():
            server = await make_server(kb)
            try:
                client = server.local_client()
                response = await client.query("Equipment(?x)")
                assert response["ok"] is True
                assert response["generation"] == 0
                assert response["count"] == len(response["answers"])
                return response["answers"]
            finally:
                await server.shutdown()

        answers = asyncio.run(scenario())
        assert answers == oracle_answers(kb, FACT_LINES)["Equipment(?x)"]

    def test_concurrent_clients_agree_with_single_threaded_session(self, kb):
        async def scenario():
            server = await make_server(kb)
            try:
                clients = [server.local_client() for _ in range(4)]
                tasks = [
                    clients[i % len(clients)].query(QUERY_TEXTS[i % len(QUERY_TEXTS)])
                    for i in range(24)
                ]
                return await asyncio.gather(*tasks)
            finally:
                await server.shutdown()

        responses = asyncio.run(scenario())
        oracle = oracle_answers(kb, FACT_LINES)
        assert len(responses) == 24
        for response in responses:
            assert response["generation"] == 0
            assert response["answers"] == oracle[response["query"]]

    def test_ping_and_stats(self, kb):
        async def scenario():
            server = await make_server(kb)
            try:
                client = server.local_client()
                assert await client.ping() is True
                await client.query("Equipment(?x)")
                return await client.stats()
            finally:
                await server.shutdown()

        stats = asyncio.run(scenario())
        assert stats["protocol"] == "repro-serve/v1"
        assert "cim" in stats["kbs"]
        assert stats["kbs"]["cim"]["generation"] == 0
        for block in ("answer_cache", "batching", "workers"):
            assert block in stats
        assert stats["batching"]["batches"] >= 1
        # a clean run needs no recovery machinery
        for key in ("worker_restarts", "task_retries", "timeouts", "sheds"):
            assert stats["resilience"][key] == 0, key


class TestCachingAndBatching:
    def test_repeat_query_is_a_cache_hit(self, kb):
        async def scenario():
            server = await make_server(kb)
            try:
                client = server.local_client()
                first = await client.query("Terminal(?x)")
                second = await client.query("Terminal(?x)")
                # alpha-equivalent query text shares the cache entry
                renamed = await client.query("Terminal(?whatever)")
                return first, second, renamed
            finally:
                await server.shutdown()

        first, second, renamed = asyncio.run(scenario())
        assert first["cached"] is False
        assert second["cached"] is True
        assert renamed["cached"] is True
        assert first["answers"] == second["answers"] == renamed["answers"]

    def test_identical_concurrent_queries_deduplicate(self, kb):
        async def scenario():
            server = await make_server(kb)
            try:
                client = server.local_client()
                responses = await asyncio.gather(
                    *[client.query("Equipment(?x)") for _ in range(8)]
                )
                return responses, server.stats()
            finally:
                await server.shutdown()

        responses, stats = asyncio.run(scenario())
        assert len({tuple(map(tuple, r["answers"])) for r in responses}) == 1
        batching = stats["batching"]
        # 8 identical requests must evaluate strictly fewer than 8 times
        assert batching["evaluated"] < 8
        assert batching["evaluated"] + batching["dedup_saved"] + batching[
            "cache_hits"
        ] == 8

    def test_mutation_invalidates_cached_answers(self, kb):
        async def scenario():
            server = await make_server(kb)
            try:
                client = server.local_client()
                before = await client.query("Equipment(?x)")
                await client.query("Equipment(?x)")  # warm the cache
                mutation = await client.add_facts("ACEquipment(sw9).")
                after = await client.query("Equipment(?x)")
                return before, mutation, after, server.stats()
            finally:
                await server.shutdown()

        before, mutation, after, stats = asyncio.run(scenario())
        assert mutation["ok"] is True
        assert mutation["generation"] == 1
        assert after["cached"] is False  # the add invalidated the entry
        assert after["generation"] == 1
        oracle = oracle_answers(kb, FACT_LINES + ["ACEquipment(sw9)."])
        assert after["answers"] == oracle["Equipment(?x)"]
        assert before["answers"] != after["answers"]
        assert stats["answer_cache"]["invalidations"] >= 1


class TestMutationConsistency:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_interleaved_retraction_never_serves_stale_answers(self, kb, workers):
        # with two pool workers, the one that did not apply the retraction
        # has to catch up from the op log before its next answer
        async def scenario():
            server = await make_server(kb, workers=workers)
            try:
                await server.warm()
                host, port = await server.start_tcp()
                clients = [await Client.connect(host, port) for _ in range(5)]
                observed = []

                async def query_task(i):
                    response = await clients[i % 5].query(
                        QUERY_TEXTS[i % len(QUERY_TEXTS)]
                    )
                    observed.append(response)

                tasks = []
                for i in range(50):
                    tasks.append(asyncio.create_task(query_task(i)))
                    if i == 25:
                        retraction = asyncio.create_task(
                            clients[0].retract_facts("ACEquipment(sw1).")
                        )
                await asyncio.gather(*tasks, retraction)
                stats = await clients[0].stats()
                for client in clients:
                    await client.close()
                return observed, retraction.result(), stats
            finally:
                await server.shutdown()

        observed, retraction, stats = asyncio.run(scenario())
        oracles = {
            0: oracle_answers(kb, FACT_LINES),
            1: oracle_answers(
                kb, [line for line in FACT_LINES if line != "ACEquipment(sw1)."]
            ),
        }
        assert len(observed) == 50
        for response in observed:
            assert response["answers"] == oracles[response["generation"]][
                response["query"]
            ]
        assert retraction["generation"] == 1
        assert retraction["retracted_facts"] == 1
        assert stats["kbs"]["cim"]["generation"] == 1
        assert stats["workers"]["mode"] == ("pool" if workers else "inline")

    def test_mutations_apply_in_submission_order(self, kb):
        async def scenario():
            server = await make_server(kb)
            try:
                client = server.local_client()
                added = await client.add_facts("ACEquipment(sw9).")
                retracted = await client.retract_facts("ACEquipment(sw9).")
                final = await client.query("ACEquipment(?x)")
                return added, retracted, final
            finally:
                await server.shutdown()

        added, retracted, final = asyncio.run(scenario())
        assert added["generation"] == 1
        assert retracted["generation"] == 2
        assert retracted["retracted_facts"] == 1
        assert final["generation"] == 2
        assert ["sw9"] not in final["answers"]

    def test_shared_state_between_aliases_of_the_same_kb(self, kb):
        # two served names with the same sigma fingerprint AND the same
        # initial facts share one op log and one set of warm sessions
        async def scenario():
            facts = parse_facts("\n".join(FACT_LINES))
            server = ReasoningServer(
                [ServedKB("blue", kb, facts), ServedKB("green", kb, facts)]
            )
            await server.start()
            try:
                client = server.local_client()
                await client.add_facts("ACEquipment(sw9).", kb="blue")
                green = await client.query("ACEquipment(?x)", kb="green")
                stats = await client.stats()
                return green, stats
            finally:
                await server.shutdown()

        green, stats = asyncio.run(scenario())
        assert green["generation"] == 1  # blue's mutation is visible via green
        assert ["sw9"] in green["answers"]
        assert (
            stats["kbs"]["blue"]["share_key"] == stats["kbs"]["green"]["share_key"]
        )


class TestErrorHandling:
    def test_bad_query_text_is_an_error_response(self, kb):
        async def scenario():
            server = await make_server(kb)
            try:
                return await server.handle_request(
                    {"id": 1, "op": "query", "query": "Equipment(?x"}
                )
            finally:
                await server.shutdown()

        response = asyncio.run(scenario())
        assert response["ok"] is False
        assert "bad query" in response["error"]
        assert response["id"] == 1

    def test_bad_facts_are_rejected_before_enqueue(self, kb):
        async def scenario():
            server = await make_server(kb)
            try:
                bad = await server.handle_request(
                    {"id": 2, "op": "add", "facts": "NotAFact(?x)."}
                )
                # the rejected mutation must not have bumped the generation
                good = await server.local_client().query("Equipment(?x)")
                return bad, good
            finally:
                await server.shutdown()

        bad, good = asyncio.run(scenario())
        assert bad["ok"] is False
        assert good["generation"] == 0

    def test_unknown_kb_and_unknown_op(self, kb):
        async def scenario():
            server = await make_server(kb)
            try:
                missing = await server.handle_request(
                    {"id": 3, "op": "query", "kb": "nope", "query": "Equipment(?x)"}
                )
                unknown = await server.handle_request({"id": 4, "op": "explode"})
                return missing, unknown
            finally:
                await server.shutdown()

        missing, unknown = asyncio.run(scenario())
        assert missing["ok"] is False and "nope" in missing["error"]
        assert unknown["ok"] is False and "unknown op" in unknown["error"]

    def test_client_helpers_raise_serve_error(self, kb):
        async def scenario():
            server = await make_server(kb)
            try:
                with pytest.raises(ServeError, match="bad query"):
                    await server.local_client().query("Equipment(?x")
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_shutdown_refuses_new_work(self, kb):
        async def scenario():
            server = await make_server(kb)
            client = server.local_client()
            before = await client.query("Equipment(?x)")
            await server.shutdown()
            after = await client.request(
                {"id": 9, "op": "query", "query": "Equipment(?x)"}
            )
            return before, after

        before, after = asyncio.run(scenario())
        assert before["ok"] is True
        assert after["ok"] is False

    def test_rejects_duplicate_names_and_empty_serving_sets(self, kb):
        facts = parse_facts("\n".join(FACT_LINES))
        with pytest.raises(ValueError):
            ReasoningServer([])
        with pytest.raises(ValueError):
            ReasoningServer([ServedKB("cim", kb, facts), ServedKB("cim", kb, facts)])


class TestTcpPath:
    def test_tcp_clients_pipeline_over_one_connection(self, kb):
        async def scenario():
            server = await make_server(kb)
            try:
                host, port = await server.start_tcp()
                client = await Client.connect(host, port)
                try:
                    responses = await asyncio.gather(
                        client.query("Equipment(?x)"),
                        client.query("Terminal(?x)"),
                        client.ping(),
                    )
                    stats = await client.stats()
                finally:
                    await client.close()
                return responses, stats
            finally:
                await server.shutdown()

        (equipment, terminal, pong), stats = asyncio.run(scenario())
        oracle = oracle_answers(kb, FACT_LINES)
        assert equipment["answers"] == oracle["Equipment(?x)"]
        assert terminal["answers"] == oracle["Terminal(?x)"]
        assert pong is True
        assert stats["protocol"] == "repro-serve/v1"

    @staticmethod
    async def _exchange(server, lines):
        """Send raw request lines over one connection; read one reply each."""
        host, port = await server.start_tcp()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            replies = []
            for line in lines:
                writer.write(line)
                await writer.drain()
                reply = await asyncio.wait_for(reader.readline(), timeout=5)
                replies.append(decode_message(reply))
            return replies
        finally:
            writer.close()
            await writer.wait_closed()

    def test_malformed_requests_get_an_error_line_over_tcp(self, kb):
        # each of these used to kill the response task, so the client
        # waited forever for a line that was never written
        huge = "9" * 400
        lines = [
            encode_message(message)
            for message in (
                {"id": 1, "op": "query", "kb": ["cim"], "query": "Equipment(?x)"},
                {"id": 2, "op": "retract", "kb": {"n": 1}, "facts": "ACEquipment(sw1)."},
            )
        ]
        lines.append(
            b'{"id": 3, "op": "query", "query": "Equipment(?x)", "deadline_ms": %s}\n'
            % huge.encode()
        )
        lines.append(b'{"id": ' + b"1" * 5000 + b"}\n")
        lines.append(b"[" * 5000 + b"]" * 5000 + b"\n")
        lines.append(encode_message({"id": 6, "op": "ping"}))

        async def scenario():
            server = await make_server(kb)
            try:
                replies = await self._exchange(server, lines)
                local = await server.local_client().request(
                    {"id": 7, "op": "query", "kb": ["cim"], "query": "Equipment(?x)"}
                )
                return replies, local
            finally:
                await server.shutdown()

        replies, local = asyncio.run(scenario())
        *errors, pong = replies
        expected = (
            (1, "kb must be"),
            (2, "kb must be"),
            (3, "deadline_ms"),
            (None, "not valid JSON"),
            (None, "not valid JSON"),
        )
        for reply, (request_id, message) in zip(errors, expected):
            assert reply["id"] == request_id
            assert reply["ok"] is False and message in reply["error"]
        assert local["id"] == 7
        assert local["ok"] is False and "kb must be" in local["error"]
        assert pong["ok"] is True and pong["pong"] is True

    def test_an_unexpected_failure_still_gets_an_error_line_over_tcp(self, kb):
        async def scenario():
            server = await make_server(kb)

            async def broken(message):
                raise RuntimeError("boom")

            try:
                server.handle_request = broken
                return await self._exchange(
                    server, [encode_message({"id": 1, "op": "ping"})]
                )
            finally:
                await server.shutdown()

        (reply,) = asyncio.run(scenario())
        assert reply["id"] == 1
        assert reply["ok"] is False and "RuntimeError: boom" in reply["error"]

    @pytest.mark.parametrize("workers", [0, 1])
    def test_reopened_v2_kb_serves_its_segment_facts(self, kb, tmp_path, workers):
        # the loading path of `python -m repro serve`: the saved facts come
        # back as lazy repro-kb/v2 segments and seed the server directly
        facts = parse_facts("\n".join(FACT_LINES))
        path = kb.save(tmp_path / "cim.kb.json", facts=facts)
        loaded, segments = KnowledgeBase.load_or_compile(path)
        assert segments.total_facts == len(FACT_LINES)

        async def scenario():
            server = ReasoningServer(
                [ServedKB("cim", loaded, segments)], workers=workers
            )
            await server.start()
            try:
                await server.warm()
                host, port = await server.start_tcp()
                client = await Client.connect(host, port)
                try:
                    return [await client.query(text) for text in QUERY_TEXTS]
                finally:
                    await client.close()
            finally:
                await server.shutdown()

        responses = asyncio.run(scenario())
        oracle = oracle_answers(kb, FACT_LINES)
        for response in responses:
            assert response["answers"] == oracle[response["query"]]

    def test_local_and_tcp_clients_serve_identical_answers(self, kb):
        async def scenario():
            server = await make_server(kb)
            try:
                host, port = await server.start_tcp()
                tcp = await Client.connect(host, port)
                try:
                    over_tcp = await tcp.query("Equipment(?x)")
                finally:
                    await tcp.close()
                in_process = await LocalClient(server).query("Equipment(?x)")
                return over_tcp, in_process
            finally:
                await server.shutdown()

        over_tcp, in_process = asyncio.run(scenario())
        assert over_tcp["answers"] == in_process["answers"]


class TestQueryStrategies:
    def test_all_strategies_serve_identical_answers(self, kb):
        async def scenario():
            server = await make_server(kb)
            try:
                client = server.local_client()
                responses = {}
                for strategy in (None, "auto", "materialized", "demand"):
                    responses[strategy] = await client.query(
                        "Equipment(?x)", strategy=strategy
                    )
                return responses
            finally:
                await server.shutdown()

        responses = asyncio.run(scenario())
        oracle = oracle_answers(kb, FACT_LINES)["Equipment(?x)"]
        for response in responses.values():
            assert response["answers"] == oracle

    def test_strategies_share_one_cache_entry(self, kb):
        # answers are strategy-invariant, so a demand answer must satisfy a
        # later materialized request for the same query from the cache
        async def scenario():
            server = await make_server(kb)
            try:
                client = server.local_client()
                first = await client.query("Terminal(?x)", strategy="demand")
                second = await client.query(
                    "Terminal(?x)", strategy="materialized"
                )
                return first, second
            finally:
                await server.shutdown()

        first, second = asyncio.run(scenario())
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["answers"] == second["answers"]

    def test_stats_count_requested_and_effective_strategies(self, kb):
        async def scenario():
            server = await make_server(kb)
            try:
                client = server.local_client()
                await client.query("Equipment(?x)", strategy="demand")
                await client.query("Terminal(?x)", strategy="materialized")
                await client.query("hasTerminal(?x, ?y)")  # auto by default
                return await client.stats()
            finally:
                await server.shutdown()

        stats = asyncio.run(scenario())
        requested = stats["batching"]["requests_by_strategy"]
        assert requested == {"auto": 1, "demand": 1, "materialized": 1}
        effective = stats["batching"]["evaluated_by_strategy"]
        # worker sessions are warm, so auto resolves to materialized; only
        # the explicit demand request runs the magic-sets path
        assert effective.get("demand", 0) == 1
        assert effective.get("materialized", 0) == 2
        assert "auto" not in effective

    def test_batching_block_sums_the_per_kb_blocks(self, kb):
        """Two share keys: the merged blocks are the key-wise sums."""

        async def scenario():
            server = ReasoningServer(
                [
                    ServedKB("left", kb, parse_facts("\n".join(FACT_LINES))),
                    ServedKB("right", kb, parse_facts("\n".join(FACT_LINES[:2]))),
                ],
                checkpoint_threshold=1,
            )
            await server.start()
            try:
                client = server.local_client()
                for name, strategies in (
                    ("left", ("demand", "materialized")),
                    ("right", ("materialized", None)),
                ):
                    for strategy in strategies:
                        await asyncio.gather(
                            *[
                                client.query(text, kb=name, strategy=strategy)
                                for text in QUERY_TEXTS
                            ]
                        )
                    await client.add_facts("ACEquipment(sw9).", kb=name)
                    await client.query("Equipment(?x)", kb=name)
                return await client.stats()
            finally:
                await server.shutdown()

        def key_wise_sum(blocks):
            total = {}
            for block in blocks:
                for key, value in block.items():
                    total[key] = total.get(key, 0) + value
            return dict(sorted(total.items()))

        stats = asyncio.run(scenario())
        kbs = [stats["kbs"]["left"], stats["kbs"]["right"]]
        assert kbs[0]["share_key"] != kbs[1]["share_key"]
        batchers = [block["batcher"] for block in kbs]
        batching = stats["batching"]
        for key, value in batchers[0].items():
            if key == "max_batch_size":
                assert batching[key] == max(block[key] for block in batchers)
            elif isinstance(value, dict):
                assert batching[key] == key_wise_sum(block[key] for block in batchers), key
            else:
                assert batching[key] == sum(block[key] for block in batchers), key
        assert set(batching) == set(batchers[0]) | {"evaluated_by_strategy"}
        assert batching["requests_by_strategy"] == {"auto": 6, "demand": 4, "materialized": 8}
        assert batching["mutations"] == 2
        assert batching["evaluated_by_strategy"] == key_wise_sum(
            block["evaluated_by_strategy"] for block in kbs
        )
        assert [block["checkpoints"] for block in kbs] == [1, 1]
        assert stats["resilience"]["checkpoints"] == 2

    def test_invalid_strategy_is_an_error_response(self, kb):
        async def scenario():
            server = await make_server(kb)
            try:
                return await server.handle_request(
                    {
                        "id": 5,
                        "op": "query",
                        "query": "Equipment(?x)",
                        "strategy": "telepathy",
                    }
                )
            finally:
                await server.shutdown()

        response = asyncio.run(scenario())
        assert response["ok"] is False
        assert "unknown strategy" in response["error"]


class TestProcessPoolTier:
    def test_pool_workers_serve_and_catch_up_after_mutations(self, kb):
        async def scenario():
            server = await make_server(kb, workers=1)
            try:
                await server.warm()
                client = server.local_client()
                before = await client.query("Equipment(?x)")
                await client.retract_facts("ACEquipment(sw1).")
                after = await client.query("Equipment(?x)")
                stats = await client.stats()
                return before, after, stats
            finally:
                await server.shutdown()

        before, after, stats = asyncio.run(scenario())
        oracle_before = oracle_answers(kb, FACT_LINES)
        oracle_after = oracle_answers(
            kb, [line for line in FACT_LINES if line != "ACEquipment(sw1)."]
        )
        assert before["answers"] == oracle_before["Equipment(?x)"]
        assert after["answers"] == oracle_after["Equipment(?x)"]
        assert stats["workers"]["mode"] == "pool"
