"""Tests for the shared counters (repro.obs) and the surfaces that read them."""

import asyncio

import pytest

from repro import KnowledgeBase, parse_program
from repro.datalog.query import parse_query
from repro.kb import compile_cache_stats
from repro.logic.interning import intern_stats
from repro.logic.parser import parse_facts
from repro.obs import Counters, HitCounters, rate
from repro.serve.cache import AnswerCache
from repro.serve.faults import FaultPlan
from repro.serve.server import ReasoningServer, ServedKB
from repro.unification.solver import match_solver_stats


class Probes(Counters):
    __slots__ = ("probes", "probe_hits", "by_size")
    TALLIES = ("by_size",)
    DERIVED = {"hit_rate": lambda block: rate(block.probe_hits, block.probes)}


def probes(count: int, hits: int, sizes=()) -> Probes:
    block = Probes()
    block.probes, block.probe_hits = count, hits
    for size in sizes:
        block.by_size[size] = block.by_size.get(size, 0) + 1
    return block


class TestRate:
    def test_zero_whole_is_zero(self):
        assert rate(0, 0) == 0.0
        assert rate(5, 0) == 0.0

    def test_rounds_to_four_places(self):
        assert rate(1, 3) == 0.3333
        assert rate(3, 2) == 1.5


class TestCounters:
    def test_a_new_block_is_zero(self):
        assert Probes().snapshot() == {"probes": 0, "probe_hits": 0, "by_size": {}, "hit_rate": 0.0}

    def test_names_list_the_slots_base_classes_first(self):
        class Lookups(HitCounters):
            __slots__ = ("evictions",)

        assert Lookups.names == ("hits", "misses", "evictions")
        assert Lookups().snapshot() == {"hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0.0}

    def test_snapshot_lists_counters_tallies_and_derived_values(self):
        snapshot = probes(4, 3, sizes=(10, 2, 2)).snapshot()
        assert snapshot == {
            "probes": 4,
            "probe_hits": 3,
            "by_size": {"2": 2, "10": 1},
            "hit_rate": 0.75,
        }
        # sorted by the tally's own keys, then stringified for JSON
        assert list(snapshot["by_size"]) == ["2", "10"]

    def test_snapshot_is_a_copy(self):
        block = probes(1, 1, sizes=(3,))
        snapshot = block.snapshot()
        block.probes += 1
        block.by_size[3] += 1
        assert snapshot["probes"] == 1
        assert snapshot["by_size"] == {"3": 1}

    def test_merge_from_an_instance(self):
        total = probes(4, 3, sizes=(2,))
        total.merge(probes(6, 1, sizes=(2, 5)))
        assert total.snapshot() == {
            "probes": 10,
            "probe_hits": 4,
            "by_size": {"2": 2, "5": 1},
            "hit_rate": 0.4,
        }

    def test_merge_from_a_snapshot_skips_the_derived_rate(self):
        snapshot = probes(3, 1).snapshot()
        assert isinstance(snapshot["hit_rate"], float)
        total = probes(1, 1)
        total.merge(snapshot)
        assert total.snapshot() == {
            "probes": 4,
            "probe_hits": 2,
            "by_size": {},
            "hit_rate": 0.5,
        }
        assert not hasattr(total, "hit_rate")

    def test_merge_ignores_keys_the_block_does_not_count(self):
        total = probes(1, 0)
        total.merge({"probes": 2, "compile_cache": {"hits": 9}})
        assert (total.probes, total.probe_hits) == (3, 0)

    def test_reset_zeroes_counters_and_empties_tallies(self):
        block = probes(4, 3, sizes=(1,))
        block.reset()
        assert block.snapshot() == Probes().snapshot()

    def test_counters_are_slots(self):
        with pytest.raises(AttributeError):
            Probes().unknown = 1


SIGMA = """
ACEquipment(?x) -> exists ?y. hasTerminal(?x, ?y), ACTerminal(?y).
ACTerminal(?x) -> Terminal(?x).
hasTerminal(?x, ?z), Terminal(?z) -> Equipment(?x).
"""

FACTS = "ACEquipment(sw1). ACEquipment(sw2). hasTerminal(sw1, trm1). ACTerminal(trm1)."

JOIN_KEYS = {
    "batches",
    "probes",
    "probe_hits",
    "rows_emitted",
    "empty_delta_short_circuits",
    "empty_relation_short_circuits",
    "deletion_batches",
    "deletion_rows",
    "hit_rate",
}
HIT_KEYS = {"hits", "misses", "hit_rate"}
CACHE_KEYS = HIT_KEYS | {"capacity", "entries", "evictions", "invalidations", "stale_drops"}
BATCHER_KEYS = {
    "batches",
    "requests",
    "cache_hits",
    "evaluated",
    "dedup_saved",
    "mutations",
    "sheds",
    "timeouts",
    "requests_by_strategy",
    "max_batch_size",
    "batch_size_histogram",
}


class TestReadSurface:
    """Every counter read the benchmark, the ``stats`` op and the CLI use
    keeps its keys."""

    def test_library_stats_keys(self):
        kb = KnowledgeBase.compile(parse_program(SIGMA).tgds)
        facts = parse_facts(FACTS)
        assert set(match_solver_stats()) == {
            "solves",
            "solutions",
            "nodes_expanded",
            "domains_pruned",
            "empty_domain_exits",
        }
        stats = intern_stats()
        assert "overall" in stats and "atom" in stats
        assert all(set(block) == HIT_KEYS for block in stats.values())
        assert set(compile_cache_stats()) == HIT_KEYS | {"entries", "engine_cache_entries"}
        session = kb.session(facts)
        assert set(session.join_stats) == JOIN_KEYS
        assert session.snapshot().join_stats == session.join_stats
        assert set(session.demand_stats) == {
            "queries",
            "cutovers",
            "magic_facts",
            "rounds",
            "predicates_touched",
            "predicates_total",
        }
        assert set(session.store.stats()) == {
            "term_table_size",
            "rows",
            "relations",
            "key_indexes",
            "index_entries",
            "index_memory_bytes",
        }
        assert set(AnswerCache().stats()) == CACHE_KEYS
        cold = kb.session(facts, defer_materialization=True)
        cold.answer(parse_query("Equipment(sw1)"))
        assert set(cold.join_stats) == JOIN_KEYS
        demand = cold.demand_stats
        assert demand["queries"] + demand["cutovers"] == 1

    def test_server_stats_blocks(self):
        kb = KnowledgeBase.compile(parse_program(SIGMA).tgds)

        async def scenario():
            served = [ServedKB("cim", kb, parse_facts(FACTS))]
            server = ReasoningServer(served, fault_plan=FaultPlan())
            await server.start()
            try:
                client = server.local_client()
                await client.query("Equipment(?x)")
                await client.add_facts("ACEquipment(sw3).")
                return await client.stats()
            finally:
                await server.shutdown()

        stats = asyncio.run(scenario())
        assert set(stats) == {
            "protocol",
            "uptime_seconds",
            "draining",
            "kbs",
            "answer_cache",
            "batching",
            "resilience",
            "workers",
            "fault_injection",
        }
        assert set(stats["kbs"]["cim"]) == {
            "share_key",
            "fingerprint",
            "rules",
            "generation",
            "queued",
            "queue_depth",
            "queue_high_water",
            "op_log_length",
            "checkpoints",
            "checkpoint_epoch",
            "batcher",
            "evaluated_by_strategy",
        }
        assert set(stats["kbs"]["cim"]["batcher"]) == BATCHER_KEYS
        assert set(stats["answer_cache"]) == CACHE_KEYS
        assert set(stats["batching"]) == BATCHER_KEYS | {"evaluated_by_strategy"}
        assert set(stats["resilience"]) == {
            "worker_restarts",
            "task_retries",
            "recovery_wall_seconds",
            "worker_rebuilds",
            "quarantined_sessions",
            "timeouts",
            "sheds",
            "checkpoints",
        }
        assert set(stats["workers"]) == {
            "mode",
            "max_workers",
            "restarts",
            "retries",
            "recovery_wall_seconds",
            "per_process_compile_cache",
            "frontend_compile_cache",
        }
        assert set(stats["fault_injection"]) == {
            "tasks_dispatched",
            "requests_seen",
            "kills",
            "delays",
            "drops",
        }
