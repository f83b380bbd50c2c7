"""Tests for KnowledgeBase persistence, fingerprinting, and the compile cache."""

import json

import pytest

from repro import KnowledgeBase, parse_program
from repro.datalog.query import parse_query
from repro.kb import (
    KB_FORMAT_VERSION,
    KnowledgeBaseFormatError,
    cached_rewrite,
    clear_compile_cache,
    compile_cache_stats,
    read_kb_file,
    sigma_fingerprint,
)
from repro.rewriting import RewritingSettings, UnguardedTGDError
from repro.workloads.instances import generate_instance
from repro.workloads.ontology_suite import generate_suite

CIM = """
ACEquipment(?x) -> exists ?y. hasTerminal(?x, ?y), ACTerminal(?y).
ACTerminal(?x) -> Terminal(?x).
hasTerminal(?x, ?z), Terminal(?z) -> Equipment(?x).
"""

CIM_FACTS = """
ACEquipment(sw1). ACEquipment(sw2). hasTerminal(sw1, trm1). ACTerminal(trm1).
"""


@pytest.fixture(autouse=True)
def _fresh_compile_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


class TestSaveLoadRoundTrip:
    def test_round_trip_preserves_rules_and_answers(self, tmp_path):
        program = parse_program(CIM)
        kb = KnowledgeBase.compile(program.tgds)
        path = kb.save(tmp_path / "cim.kb.json")
        loaded = KnowledgeBase.load(path)
        assert loaded.tgds == kb.tgds
        assert set(loaded.rewriting.datalog_rules) == set(
            kb.rewriting.datalog_rules
        )
        assert loaded.rewriting.algorithm == kb.rewriting.algorithm
        assert loaded.rewriting.completed == kb.rewriting.completed
        instance = parse_program(CIM_FACTS).instance
        query = parse_query("Equipment(?x)")
        assert loaded.answer_many([query], instance) == kb.answer_many(
            [query], instance
        )

    def test_round_trip_preserves_statistics(self, tmp_path):
        program = parse_program(CIM)
        kb = KnowledgeBase.compile(program.tgds)
        loaded = KnowledgeBase.load(kb.save(tmp_path / "kb.json"))
        original = kb.rewriting.statistics.as_dict()
        restored = loaded.rewriting.statistics.as_dict()
        assert restored == original

    def test_file_with_the_retired_inferences_counter_loads(self, tmp_path):
        """KB files saved while statistics carried ``inferences`` still load."""
        program = parse_program(CIM)
        kb = KnowledgeBase.compile(program.tgds)
        path = kb.save(tmp_path / "kb.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert "inferences" not in payload["statistics"]
        payload["statistics"]["inferences"] = 0
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = KnowledgeBase.load(path)
        assert loaded.rewriting.statistics.as_dict() == kb.rewriting.statistics.as_dict()
        assert set(loaded.rewriting.datalog_rules) == set(kb.rewriting.datalog_rules)

    def test_round_trip_on_ontology_suite(self, tmp_path):
        """load(save(kb)) answers identically across synthetic ontologies."""
        suite = generate_suite(count=3, seed=7, min_axioms=12, max_axioms=24)
        settings = RewritingSettings(timeout_seconds=8.0)
        for item in suite:
            kb = KnowledgeBase.compile(
                item.tgds, algorithm="exbdr", settings=settings
            )
            if not kb.rewriting.completed:
                continue
            path = kb.save(tmp_path / f"{item.identifier}.kb.json")
            loaded = KnowledgeBase.load(path)
            assert set(loaded.rewriting.datalog_rules) == set(
                kb.rewriting.datalog_rules
            ), item.identifier
            instance = generate_instance(
                item.tgds, fact_count=120, constant_count=30, seed=1
            )
            assert (
                loaded.session(instance).certain_base_facts()
                == kb.session(instance).certain_base_facts()
            ), item.identifier

    def test_saved_file_is_versioned_json(self, tmp_path):
        program = parse_program(CIM)
        kb = KnowledgeBase.compile(program.tgds)
        path = kb.save(tmp_path / "kb.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["format"] == KB_FORMAT_VERSION
        assert payload["sigma_fingerprint"] == kb.fingerprint


class TestFactSegments:
    #: CIM plus a disconnected predicate: demand for Equipment-side queries
    #: never touches Tag/Tagged, so their segment must stay undecoded
    _SIGMA = CIM + "\nTag(?x) -> Tagged(?x).\n"
    _FACTS = CIM_FACTS + "\nTag(t1). Tag(t2).\n"

    def _kb_and_facts(self):
        program = parse_program(self._SIGMA)
        kb = KnowledgeBase.compile(program.tgds)
        facts = tuple(parse_program(self._FACTS).instance)
        return kb, facts

    def test_save_with_facts_round_trips_them(self, tmp_path):
        kb, facts = self._kb_and_facts()
        path = kb.save(tmp_path / "kb.json", facts=facts)
        loaded = KnowledgeBase.load(path)
        assert loaded.fact_segments is not None
        assert set(loaded.fact_segments) == set(facts)

    def test_save_without_facts_has_no_segments(self, tmp_path):
        kb, _ = self._kb_and_facts()
        loaded = KnowledgeBase.load(kb.save(tmp_path / "kb.json"))
        assert loaded.fact_segments is None

    def test_segments_decode_lazily_per_predicate(self, tmp_path):
        from repro.logic.atoms import Predicate

        kb, facts = self._kb_and_facts()
        path = kb.save(tmp_path / "kb.json", facts=facts)
        loaded = KnowledgeBase.load(path)
        segments = loaded.fact_segments
        assert segments.predicates_loaded == 0
        assert segments.total_facts == len(set(facts))
        relation = segments.relation(Predicate("ACEquipment", 1))
        assert len(relation) == 2
        assert segments.predicates_loaded == 1
        assert segments.predicates_loaded < segments.total_predicates
        assert segments.load_wall_seconds >= 0.0

    def test_bound_demand_query_loads_only_probed_predicates(self, tmp_path):
        """The lazy-segment acceptance criterion: a repro-kb/v2 KB answers a
        bound demand query with ``predicates_loaded < total_predicates``."""
        kb, facts = self._kb_and_facts()
        # unrelated facts make the demand selective: it fits the auto
        # budget of one work unit per base fact
        facts += tuple(parse_program(" ".join(
            f"Tag(u{i})." for i in range(20)
        )).instance)
        path = kb.save(tmp_path / "kb.json", facts=facts)
        loaded, seed = KnowledgeBase.load_or_compile(path)
        segments = loaded.fact_segments
        assert seed is segments and segments.predicates_loaded == 0
        session = loaded.session(seed, defer_materialization=True)
        query = parse_query("Equipment(sw1)")
        answers = session.answer(query)
        # same answers as the fully materialized oracle...
        assert answers == kb.answer_many([query], facts)[0]
        # ...while the session stayed cold and decoded a strict subset
        assert session.is_cold
        assert session.demand_stats["cutovers"] == 0
        assert 0 < segments.predicates_loaded < segments.total_predicates

    def test_unselective_auto_demand_on_a_lazy_source_cuts_over(self, tmp_path):
        # on the bare fixture the same demand spends more work than its
        # budget (6 base facts): auto warms the session, decoding every
        # segment, and answers from the materialization
        kb, facts = self._kb_and_facts()
        path = kb.save(tmp_path / "kb.json", facts=facts)
        loaded, seed = KnowledgeBase.load_or_compile(path)
        session = loaded.session(seed, defer_materialization=True)
        query = parse_query("Equipment(sw1)")
        assert session.answer(query) == kb.session(facts).answer(query) == {()}
        assert not session.is_cold
        assert session.demand_stats["cutovers"] == 1
        assert seed.predicates_loaded == seed.total_predicates

    @pytest.mark.parametrize(
        "query_text, expected",
        [
            ("Other(a, ?x)", {("q",)}),
            ("Edge(a, ?x)", {("b",)}),
            ("Reach(b), Other(a, ?y)", {("q",)}),
        ],
    )
    def test_lazy_demand_reads_the_query_own_predicates(
        self, tmp_path, query_text, expected
    ):
        """A query atom on a predicate no demanded rule reads still sees its
        facts: the lazy source decodes the query's predicates too."""
        from repro.datalog.query import QueryOptions

        program = parse_program("""
            Start(?x) -> Reach(?x).
            Reach(?x), Edge(?x, ?y) -> Reach(?y).
        """)
        kb = KnowledgeBase.compile(program.tgds)
        facts = tuple(parse_program(
            "Start(a). Edge(a, b). Edge(b, c). Other(a, q)."
        ).instance)
        loaded, seed = KnowledgeBase.load_or_compile(
            kb.save(tmp_path / "kb.json", facts=facts)
        )
        session = loaded.session(seed, defer_materialization=True)
        query = parse_query(query_text)
        # explicit demand is unbudgeted, so this tiny KB stays on the lazy path
        answers = session.answer(query, options=QueryOptions(strategy="demand"))
        assert session.is_cold
        assert {tuple(str(term) for term in row) for row in answers} == expected
        assert answers == kb.session(facts).answer(query)

    def test_warming_a_lazy_session_matches_eager_one(self, tmp_path):
        kb, facts = self._kb_and_facts()
        path = kb.save(tmp_path / "kb.json", facts=facts)
        loaded, seed = KnowledgeBase.load_or_compile(path)
        lazy_session = loaded.session(seed, defer_materialization=True)
        assert lazy_session.base_fact_count == len(set(facts))
        eager_session = kb.session(facts)
        assert lazy_session.facts() == eager_session.facts()
        assert not lazy_session.is_cold

    def test_v1_file_upgrades_and_round_trips_to_v2(self, tmp_path):
        """v1 → load → save → v2 → load, per the compatibility contract."""
        kb, facts = self._kb_and_facts()
        v2_path = kb.save(tmp_path / "kb.v2.json")
        payload = json.loads(v2_path.read_text(encoding="utf-8"))
        payload["format"] = "repro-kb/v1"
        v1_path = tmp_path / "kb.v1.json"
        v1_path.write_text(json.dumps(payload), encoding="utf-8")

        upgraded = KnowledgeBase.load(v1_path)  # v1 → load
        assert upgraded.tgds == kb.tgds
        resaved = upgraded.save(tmp_path / "kb.resaved.json")  # save → v2
        assert (
            json.loads(resaved.read_text(encoding="utf-8"))["format"]
            == "repro-kb/v2"
        )
        final = KnowledgeBase.load(resaved)  # → load
        assert set(final.rewriting.datalog_rules) == set(kb.rewriting.datalog_rules)
        query = parse_query("Equipment(?x)")
        assert final.answer_many([query], facts) == kb.answer_many([query], facts)

    @pytest.mark.parametrize(
        "key, arity",
        [
            pytest.param("Bogus/2", 3, id="key-arity-mismatch"),
            pytest.param("Bogus/-1", -1, id="negative-arity"),
        ],
    )
    def test_malformed_segment_rejected(self, tmp_path, key, arity):
        kb, facts = self._kb_and_facts()
        path = kb.save(tmp_path / "kb.json", facts=facts)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["fact_segments"]["predicates"][key] = {
            "arity": arity,
            "count": 0,
            "rows": "",
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(KnowledgeBaseFormatError, match="arity"):
            KnowledgeBase.load(path)

    @pytest.mark.parametrize(
        "name, arity, field, value, message",
        [
            pytest.param(
                "ACEquipment", 1, "count", 99, "declares 99 rows", id="count-mismatch"
            ),
            # a negative ID would index the term table from its end
            pytest.param(
                "ACEquipment", 1, "rows", "-1 0", "unknown term ID -1", id="negative-id"
            ),
            pytest.param(
                "ACEquipment", 1, "rows", "0 x", "not an integer", id="non-integer-id"
            ),
            pytest.param(
                "ACEquipment", 1, "count", -1, "invalid count -1", id="negative-count"
            ),
            pytest.param(
                "Alarm", 0, "count", -2, "invalid count -2", id="nullary-negative-count"
            ),
            pytest.param(
                "Alarm", 0, "count", 2, "invalid count 2", id="nullary-count-above-one"
            ),
        ],
    )
    def test_row_count_mismatch_rejected_on_decode(
        self, tmp_path, name, arity, field, value, message
    ):
        from repro.logic.atoms import Atom, Predicate

        kb, facts = self._kb_and_facts()
        alarm = Atom(Predicate("Alarm", 0), ())
        path = kb.save(tmp_path / "kb.json", facts=facts + (alarm,))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["fact_segments"]["predicates"][f"{name}/{arity}"][field] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        # a bad count fails the header check on load, bad rows on decode
        with pytest.raises(KnowledgeBaseFormatError, match=message):
            KnowledgeBase.load(path).fact_segments.relation(Predicate(name, arity))


class TestFormatErrors:
    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text(json.dumps({"format": "repro-kb/v99"}), encoding="utf-8")
        with pytest.raises(KnowledgeBaseFormatError, match="unsupported KB format"):
            KnowledgeBase.load(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(KnowledgeBaseFormatError, match="not valid JSON"):
            read_kb_file(path)

    def test_tampered_tgds_rejected(self, tmp_path):
        program = parse_program(CIM)
        kb = KnowledgeBase.compile(program.tgds)
        path = kb.save(tmp_path / "kb.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["tgds"][0]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(KnowledgeBaseFormatError, match="digest"):
            KnowledgeBase.load(path)

    def test_tampered_rules_rejected(self, tmp_path):
        program = parse_program(CIM)
        kb = KnowledgeBase.compile(program.tgds)
        path = kb.save(tmp_path / "kb.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["datalog_rules"][0]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(KnowledgeBaseFormatError, match="digest"):
            KnowledgeBase.load(path)

    def test_missing_integrity_fields_rejected(self, tmp_path):
        program = parse_program(CIM)
        kb = KnowledgeBase.compile(program.tgds)
        path = kb.save(tmp_path / "kb.json")
        for field_name in ("content_digest", "sigma_fingerprint"):
            payload = json.loads(path.read_text(encoding="utf-8"))
            del payload[field_name]
            stripped = tmp_path / f"no_{field_name}.json"
            stripped.write_text(json.dumps(payload), encoding="utf-8")
            with pytest.raises(KnowledgeBaseFormatError, match=field_name):
                KnowledgeBase.load(stripped)


class TestFingerprint:
    def test_invariant_under_clause_order(self):
        lines = [line for line in CIM.strip().splitlines() if line.strip()]
        forward = parse_program("\n".join(lines)).tgds
        backward = parse_program("\n".join(reversed(lines))).tgds
        assert sigma_fingerprint(forward) == sigma_fingerprint(backward)

    def test_invariant_under_variable_renaming(self):
        renamed = CIM.replace("?x", "?u").replace("?y", "?v").replace("?z", "?w")
        assert sigma_fingerprint(parse_program(CIM).tgds) == sigma_fingerprint(
            parse_program(renamed).tgds
        )

    def test_different_sigma_different_fingerprint(self):
        other = parse_program("A(?x) -> B(?x).").tgds
        assert sigma_fingerprint(parse_program(CIM).tgds) != sigma_fingerprint(other)


class TestCompileCache:
    def test_repeated_compiles_hit_the_cache(self):
        tgds = parse_program(CIM).tgds
        first = KnowledgeBase.compile(tgds)
        second = KnowledgeBase.compile(tgds)
        assert second.rewriting is first.rewriting
        stats = compile_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_cache_is_shared_across_clause_reordering(self):
        lines = [line for line in CIM.strip().splitlines() if line.strip()]
        KnowledgeBase.compile(parse_program("\n".join(lines)).tgds)
        KnowledgeBase.compile(parse_program("\n".join(reversed(lines))).tgds)
        assert compile_cache_stats()["hits"] == 1

    def test_algorithm_and_settings_partition_the_cache(self):
        tgds = parse_program(CIM).tgds
        KnowledgeBase.compile(tgds, algorithm="hypdr")
        KnowledgeBase.compile(tgds, algorithm="exbdr")
        KnowledgeBase.compile(
            tgds, algorithm="hypdr", settings=RewritingSettings(use_lookahead=False)
        )
        assert compile_cache_stats() == {
            "entries": 3,
            "hits": 0,
            "misses": 3,
            "hit_rate": 0.0,
            "engine_cache_entries": 0,
        }

    def test_cached_rewrite_returns_fingerprint(self):
        tgds = parse_program(CIM).tgds
        result, fingerprint = cached_rewrite(tgds)
        assert result.completed
        assert fingerprint == sigma_fingerprint(tgds)

    def test_unguarded_sigma_rejected_through_compile(self):
        tgds = parse_program("A(?x), B(?y) -> C(?x, ?y).").tgds
        with pytest.raises(UnguardedTGDError):
            KnowledgeBase.compile(tgds)
