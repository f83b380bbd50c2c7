"""Tests for the generation-stamped LRU answer cache and query fingerprints."""

import pytest

from repro.datalog.query import parse_query
from repro.serve.cache import AnswerCache, query_fingerprint


class TestQueryFingerprint:
    def test_alpha_equivalent_queries_share_a_fingerprint(self):
        a = query_fingerprint(parse_query("Equipment(?x), hasTerminal(?x, ?y)"))
        b = query_fingerprint(parse_query("Equipment(?u), hasTerminal(?u, ?w)"))
        assert a == b

    def test_different_variable_patterns_differ(self):
        joined = query_fingerprint(parse_query("R(?x, ?y), S(?y, ?z)"))
        cross = query_fingerprint(parse_query("R(?x, ?y), S(?u, ?z)"))
        assert joined != cross

    def test_constants_are_kept_verbatim(self):
        grounded = query_fingerprint(parse_query("hasTerminal(sw1, ?y)"))
        assert "sw1" in grounded
        assert grounded != query_fingerprint(parse_query("hasTerminal(?x, ?y)"))

    def test_atom_order_is_preserved(self):
        # conjunction is commutative but the fingerprint deliberately does
        # not canonicalize atom order (that would be graph canonicalization)
        ab = query_fingerprint(parse_query("A(?x), B(?x)"))
        ba = query_fingerprint(parse_query("B(?x), A(?x)"))
        assert ab != ba


class TestAnswerCache:
    def test_put_get_roundtrip(self):
        cache = AnswerCache(capacity=4)
        assert cache.get("kb", "q1") is None
        assert cache.put("kb", "q1", 0, [["a"]])
        assert cache.get("kb", "q1") == [["a"]]
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            AnswerCache(capacity=0)

    def test_invalidate_makes_every_entry_stale(self):
        cache = AnswerCache(capacity=4)
        cache.put("kb", "q1", 0, [["a"]])
        cache.put("kb", "q2", 0, [["b"]])
        assert cache.invalidate("kb") == 1
        assert cache.get("kb", "q1") is None
        assert cache.get("kb", "q2") is None
        stats = cache.stats()
        assert stats["stale_drops"] == 2
        assert stats["invalidations"] == 1

    def test_invalidation_is_per_kb(self):
        cache = AnswerCache(capacity=4)
        cache.put("kb1", "q", 0, [["a"]])
        cache.put("kb2", "q", 0, [["b"]])
        cache.invalidate("kb1")
        assert cache.get("kb1", "q") is None
        assert cache.get("kb2", "q") == [["b"]]

    def test_put_refuses_superseded_generation(self):
        # a batch that raced with a mutation must not poison the cache
        cache = AnswerCache(capacity=4)
        cache.invalidate("kb")  # generation is now 1
        assert not cache.put("kb", "q", 0, [["stale"]])
        assert cache.get("kb", "q") is None
        assert cache.put("kb", "q", 1, [["fresh"]])
        assert cache.get("kb", "q") == [["fresh"]]

    def test_lru_eviction_order(self):
        cache = AnswerCache(capacity=2)
        cache.put("kb", "q1", 0, [["1"]])
        cache.put("kb", "q2", 0, [["2"]])
        assert cache.get("kb", "q1") == [["1"]]  # refresh q1
        cache.put("kb", "q3", 0, [["3"]])  # evicts q2, the LRU entry
        assert cache.get("kb", "q2") is None
        assert cache.get("kb", "q1") == [["1"]]
        assert cache.get("kb", "q3") == [["3"]]
        assert cache.stats()["evictions"] == 1

    def test_generation_starts_at_zero(self):
        cache = AnswerCache()
        assert cache.generation("anything") == 0

    def test_clear_keeps_generations(self):
        cache = AnswerCache(capacity=4)
        cache.put("kb", "q", 0, [["a"]])
        cache.invalidate("kb")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 0
        # generations survive a clear: a put at the old generation stays refused
        assert not cache.put("kb", "q", 0, [["stale"]])

    def test_server_mutations_invalidate_the_kb(self):
        """Every add and retract entering a KB's op log bumps its generation."""
        import asyncio

        from repro.api import KnowledgeBase
        from repro.logic.parser import parse_facts, parse_program
        from repro.serve.server import ReasoningServer, ServedKB

        program = parse_program(
            "ACEquipment(?x) -> exists ?y. hasTerminal(?x, ?y), ACTerminal(?y)."
        )
        kb = KnowledgeBase.compile(program.tgds)

        async def scenario():
            server = ReasoningServer(
                [ServedKB("kb", kb, parse_facts("ACEquipment(sw1)."))]
            )
            await server.start()
            try:
                client = server.local_client()
                key = server.stats()["kbs"]["kb"]["share_key"]
                generations = [server.cache.generation(key)]
                await client.query("ACEquipment(?x)")
                await client.add_facts("ACEquipment(sw2).")
                generations.append(server.cache.generation(key))
                added = await client.query("ACEquipment(?x)")
                await client.retract_facts("ACEquipment(sw2).")
                generations.append(server.cache.generation(key))
                retracted = await client.query("ACEquipment(?x)")
                return generations, added, retracted
            finally:
                await server.shutdown()

        generations, added, retracted = asyncio.run(scenario())
        assert generations == [0, 1, 2]
        assert (added["cached"], added["answers"]) == (False, [["sw1"], ["sw2"]])
        assert (retracted["cached"], retracted["answers"]) == (False, [["sw1"]])
