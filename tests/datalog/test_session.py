"""Tests for the incremental ReasoningSession."""

import pytest

from repro.datalog import DatalogProgram, ReasoningSession, materialize
from repro.datalog.engine import BudgetExceeded
from repro.datalog.magic import demand_answer
from repro.datalog.query import parse_query
from repro.logic.atoms import Predicate
from repro.logic.parser import parse_fact, parse_facts, parse_program
from repro.rewriting import rewrite
from repro.workloads.instances import generate_instance
from repro.workloads.ontology_suite import generate_suite

CLOSURE = """
Edge(?x, ?y) -> Reach(?x, ?y).
Reach(?x, ?y), Edge(?y, ?z) -> Reach(?x, ?z).
"""


def _closure_session(facts="Edge(a, b). Edge(b, c)."):
    program = parse_program(CLOSURE)
    return ReasoningSession(program.tgds, parse_facts(facts))


class TestIncrementalCorrectness:
    def test_delta_matches_full_rematerialization(self):
        """add_facts reaches the same fixpoint as materializing from scratch."""
        program = parse_program(CLOSURE)
        base = parse_facts("Edge(a, b). Edge(b, c).")
        delta = parse_facts("Edge(c, d). Edge(d, e).")
        session = ReasoningSession(program.tgds, base)
        session.add_facts(delta)
        full = materialize(
            DatalogProgram(program.tgds), list(base) + list(delta)
        )
        assert session.facts() == full.facts()

    def test_many_small_deltas_match_one_big_one(self):
        program = parse_program(CLOSURE)
        facts = [parse_fact(f"Edge(n{i}, n{i + 1})") for i in range(8)]
        incremental = ReasoningSession(program.tgds)
        for fact in facts:
            incremental.add_fact(fact)
        batch = ReasoningSession(program.tgds, facts)
        assert incremental.facts() == batch.facts()

    def test_delta_closing_a_cycle(self):
        session = _closure_session("Edge(a, b). Edge(b, c).")
        session.add_facts(parse_facts("Edge(c, a)."))
        reach = Predicate("Reach", 2)
        for source in "abc":
            for target in "abc":
                assert parse_fact(f"Reach({source}, {target})") in session

    def test_empty_session_then_facts(self):
        session = _closure_session(facts="")
        assert len(session) == 0
        update = session.add_facts(parse_facts("Edge(a, b)."))
        assert update.added_facts == 1
        assert update.derived_count == 1  # Reach(a, b)


class TestDeltaBookkeeping:
    def test_duplicate_facts_are_ignored(self):
        session = _closure_session()
        update = session.add_facts(parse_facts("Edge(a, b)."))
        assert update.added_facts == 0
        assert update.derived_count == 0
        assert update.rounds == 0

    def test_already_derived_facts_are_ignored(self):
        session = _closure_session()
        update = session.add_facts(parse_facts("Reach(a, c)."))
        assert update.added_facts == 0

    def test_update_counts_accumulate(self):
        session = _closure_session()
        before = len(session)
        update = session.add_facts(parse_facts("Edge(c, d)."))
        assert update.added_facts == 1
        # Reach(c, d), Reach(b, d), Reach(a, d)
        assert update.derived_count == 3
        assert update.total_new_facts == len(session) - before
        assert session.update_count == 1

    def test_derived_count_tracks_lifetime_inferences(self):
        session = _closure_session()
        initial = session.derived_count
        session.add_facts(parse_facts("Edge(c, d)."))
        assert session.derived_count == initial + 3


class TestQueryAnswering:
    def test_answer_reflects_latest_delta(self):
        session = _closure_session()
        query = parse_query("Reach(a, ?y)")
        assert len(session.answer(query)) == 2
        session.add_facts(parse_facts("Edge(c, d)."))
        assert len(session.answer(query)) == 3

    def test_answer_many_preserves_order(self):
        session = _closure_session()
        queries = [parse_query("Reach(a, ?y)"), parse_query("Edge(?x, ?y)")]
        answers = session.answer_many(queries)
        assert len(answers) == 2
        assert len(answers[0]) == 2
        assert len(answers[1]) == 2

    def test_entails_and_base_facts(self):
        session = _closure_session()
        assert session.entails(parse_fact("Reach(a, c)"))
        assert not session.entails(parse_fact("Reach(c, a)"))
        assert parse_fact("Edge(a, b)") in session.certain_base_facts()


class TestSnapshots:
    def test_snapshot_is_immune_to_later_updates(self):
        session = _closure_session()
        snapshot = session.snapshot()
        session.add_facts(parse_facts("Edge(c, d)."))
        assert parse_fact("Reach(a, d)") not in snapshot
        assert parse_fact("Reach(a, d)") in session

    def test_snapshot_reports_cumulative_statistics(self):
        session = _closure_session()
        session.add_facts(parse_facts("Edge(c, d)."))
        snapshot = session.snapshot()
        assert snapshot.derived_count == session.derived_count
        assert snapshot.facts() == session.facts()


class TestParseQuery:
    def test_variables_in_order_of_first_occurrence(self):
        query = parse_query("Reach(?y, ?x), Edge(?x, ?z).")
        assert [v.name for v in query.answer_variables] == ["y", "x", "z"]

    def test_ground_query_has_no_answer_variables(self):
        query = parse_query("Reach(a, b)")
        assert query.arity == 0

    def test_malformed_query_rejected(self):
        from repro.logic.parser import ParseError

        with pytest.raises(ParseError):
            parse_query("Reach(?x, ?y) extra")


class TestRetractionCorrectness:
    def test_retract_matches_full_rematerialization(self):
        session = _closure_session("Edge(a, b). Edge(b, c). Edge(c, d).")
        session.retract_facts(parse_facts("Edge(b, c)."))
        program = parse_program(CLOSURE)
        full = materialize(
            DatalogProgram(program.tgds), parse_facts("Edge(a, b). Edge(c, d).")
        )
        assert session.facts() == full.facts()

    def test_add_then_retract_round_trips(self):
        session = _closure_session("Edge(a, b). Edge(b, c).")
        before = session.facts()
        delta = parse_facts("Edge(c, d). Edge(d, e).")
        session.add_facts(delta)
        session.retract_facts(delta)
        assert session.facts() == before

    def test_interleaved_churn_matches_rebuild(self):
        session = _closure_session("Edge(a, b). Edge(b, c).")
        session.add_facts(parse_facts("Edge(c, d)."))
        session.retract_facts(parse_facts("Edge(a, b)."))
        session.add_facts(parse_facts("Edge(d, a)."))
        program = parse_program(CLOSURE)
        survivors = parse_facts("Edge(b, c). Edge(c, d). Edge(d, a).")
        full = materialize(DatalogProgram(program.tgds), survivors)
        assert session.facts() == full.facts()

    def test_retraction_contract_ignores_unretractable_inputs(self):
        session = _closure_session("Edge(a, b). Edge(b, c).")
        result = session.retract_facts(
            parse_facts("Reach(a, c). Edge(x, y).")  # derived-only / never added
        )
        assert result.retracted_facts == 0
        assert result.ignored_facts == 2
        assert session.facts() == _closure_session("Edge(a, b). Edge(b, c).").facts()


class TestRetractionBookkeeping:
    def test_added_facts_counts_base_not_subtraction(self):
        # regression: duplicated inputs used to inflate the old
        # len(initial) - derived_count bookkeeping
        session = _closure_session("Edge(a, b). Edge(a, b). Edge(b, c).")
        assert session.added_facts == 2
        assert session.base_fact_count == 2

    def test_added_facts_with_already_derivable_inputs(self):
        # an input fact the rules also derive is still an accepted assertion
        program = parse_program(
            "Edge(?x, ?y) -> Link(?x, ?y)."
        )
        session = ReasoningSession(
            program.tgds, parse_facts("Edge(a, b). Link(a, b).")
        )
        assert session.added_facts == 2
        assert session.base_fact_count == 2
        # the rule re-proves the asserted Link fact, so nothing new is
        # derived and the store is exactly the two assertions
        assert len(session) == 2

    def test_counters_stay_consistent_after_retraction(self):
        # regression: the subtraction-based added_facts went stale (or
        # negative) once retraction shrank the store
        session = _closure_session("Edge(a, b). Edge(b, c). Edge(c, d).")
        added_before = session.added_facts
        session.retract_facts(parse_facts("Edge(b, c)."))
        assert session.added_facts == added_before  # lifetime counter
        assert session.retracted_facts == 1
        assert session.retraction_count == 1
        assert session.base_fact_count == 2
        assert session.added_facts >= 0
        assert len(session) == len(session.facts())

    def test_retract_fact_convenience_and_repr(self):
        session = _closure_session()
        session.retract_fact(parse_fact("Edge(b, c)."))
        assert session.retraction_count == 1
        assert "1 retractions" in repr(session)

    def test_snapshot_is_immune_to_later_retractions(self):
        session = _closure_session("Edge(a, b). Edge(b, c).")
        snapshot = session.snapshot()
        session.retract_facts(parse_facts("Edge(a, b)."))
        assert parse_fact("Edge(a, b).") in snapshot.store.facts()

    def test_answers_reflect_retraction(self):
        session = _closure_session("Edge(a, b). Edge(b, c).")
        query = parse_query("Reach(?x, c)")
        assert len(session.answer(query)) == 2
        session.retract_facts(parse_facts("Edge(a, b)."))
        assert len(session.answer(query)) == 1


class TestUpdateWork:
    """Incremental maintenance does work proportional to the change.

    A broken delta seeding or a retraction that deletes and re-derives
    whole derivation cones still reaches the right fixpoint, only by
    redoing (nearly) full work, so these tests bound the work itself.
    ``rule_applications`` is counted instead of wall time or join probes
    because it is the same on every machine; a retraction's count moves by
    a few instances with the hash seed, because B/F checks its candidates
    in set order.
    """

    @pytest.fixture(scope="class")
    def workload(self):
        """The larger ExbDR rewriting of a seeded suite, its sorted instance,
        and the size of a 1% change."""
        suite = generate_suite(count=2, seed=2022, min_axioms=12, max_axioms=24)
        item, rewriting = max(
            ((item, rewrite(item.tgds, algorithm="exbdr")) for item in suite),
            key=lambda pair: pair[1].output_size,
        )
        assert rewriting.completed
        instance = generate_instance(
            item.tgds,
            fact_count=1000,
            constant_count=100,
            seed=int(item.identifier),
        )
        facts = sorted(instance, key=str)
        return DatalogProgram(rewriting.datalog_rules), facts, len(facts) // 100

    def test_adding_one_percent_costs_a_tenth_of_a_full_run(self, workload):
        program, facts, one_percent = workload
        session = ReasoningSession(program, facts[:-one_percent])
        update = session.add_facts(facts[-one_percent:])
        full = materialize(program, facts)
        assert update.rule_applications * 10 <= full.rule_applications
        assert session.facts() == full.facts()

    def test_retracting_one_percent_costs_a_fortieth_of_a_rebuild(self, workload):
        # every retracted fact here stays derivable, so B/F proves each one
        # and removes nothing: the work is a few backward instances
        program, facts, one_percent = workload
        base = facts[:-one_percent]
        session = ReasoningSession(program, base)
        retraction = session.retract_facts(base[:one_percent])
        rebuild = materialize(program, base[one_percent:])
        assert retraction.retracted_facts == one_percent
        assert retraction.net_removed == 0
        assert retraction.rule_applications * 40 <= rebuild.rule_applications
        assert session.facts() == rebuild.facts()

    def test_a_retraction_that_removes_facts_puts_none_back(self, workload):
        # the last 1% of the base removes derived facts too; B/F removes
        # only facts with no other proof, so nothing is restored afterwards
        program, facts, one_percent = workload
        base = facts[:-one_percent]
        session = ReasoningSession(program, base)
        retraction = session.retract_facts(base[-one_percent:])
        rebuild = materialize(program, base[:-one_percent])
        assert retraction.retracted_facts == one_percent
        assert retraction.net_removed > retraction.retracted_facts
        assert retraction.rederived == 0
        assert retraction.net_removed == retraction.retracted_facts + retraction.overdeleted
        assert retraction.rule_applications * 20 <= rebuild.rule_applications
        assert session.facts() == rebuild.facts()


#: a second component that no demand from a, b or c reaches
UNRELATED = " ".join(f"Edge(x{i}, x{i + 1})." for i in range(20))


def _cold_session(facts="Edge(a, b). Edge(b, c)."):
    program = parse_program(CLOSURE)
    return ReasoningSession(
        program.tgds, parse_facts(facts), defer_materialization=True
    )


class TestDeferredMaterialization:
    def test_cold_session_stays_cold_across_demand_answers(self):
        from repro.datalog import QueryOptions

        session = _cold_session()
        assert session.is_cold
        assert "cold" in repr(session)
        answers = session.answer(
            parse_query("Reach(a, ?y)"), options=QueryOptions(strategy="demand")
        )
        assert len(answers) == 2
        assert session.is_cold
        assert session.base_fact_count == 2  # countable without warming

    def test_materialized_paths_warm_permanently(self):
        for access in (
            # auto + zero-bound resolves to materialized even when cold
            lambda s: s.answer(parse_query("Reach(?x, ?y)")),
            lambda s: s.add_facts(parse_facts("Edge(c, d).")),
            lambda s: s.retract_facts(parse_facts("Edge(a, b).")),
            lambda s: s.snapshot(),
            lambda s: s.facts(),
            lambda s: s.entails(parse_fact("Edge(a, b)")),
            lambda s: s.store,
        ):
            session = _cold_session()
            access(session)
            assert not session.is_cold

    def test_eager_sessions_are_warm_from_construction(self):
        assert not _closure_session().is_cold

    def test_cold_and_warm_sessions_answer_identically(self):
        from repro.datalog import QueryOptions

        for text in ("Reach(a, ?y)", "Reach(?x, c)", "Reach(?x, ?y)"):
            query = parse_query(text)
            cold = _cold_session().answer(
                query, options=QueryOptions(strategy="demand")
            )
            assert cold == _closure_session().answer(query)


class TestStrategyResolution:
    def test_auto_is_demand_only_when_cold_and_bound(self):
        bound = parse_query("Reach(a, ?y)")
        free = parse_query("Reach(?x, ?y)")
        cold = _cold_session()
        assert cold.resolve_strategy(bound) == "demand"
        assert cold.resolve_strategy(free) == "materialized"
        warm = _closure_session()
        assert warm.resolve_strategy(bound) == "materialized"

    def test_explicit_strategies_are_respected(self):
        from repro.datalog import QueryOptions

        query = parse_query("Reach(a, ?y)")
        warm = _closure_session()
        assert (
            warm.resolve_strategy(query, QueryOptions(strategy="demand"))
            == "demand"
        )
        cold = _cold_session()
        assert (
            cold.resolve_strategy(query, QueryOptions(strategy="materialized"))
            == "materialized"
        )

    def test_answer_many_resolves_per_query_in_input_order(self):
        # on two facts, demand for the first query spends more work (10
        # units) than the budget of 2 allows: it cuts over and warms the
        # session, so every later query goes materialized
        queries = [
            parse_query("Reach(a, ?y)"),
            parse_query("Reach(?x, ?y)"),
            parse_query("Reach(b, ?y)"),
        ]
        session = _cold_session()
        answers = session.answer_many(queries)
        assert not session.is_cold
        assert session.demand_stats["queries"] == 0
        assert session.demand_stats["cutovers"] == 1
        assert answers == _closure_session().answer_many(queries)

    def test_answer_many_answers_by_demand_until_a_query_warms_the_session(self):
        # with an unrelated component the same demand fits its budget: the
        # bound query is answered demand-driven without warming the session,
        # the zero-bound query warms it, and the last one goes materialized
        facts = "Edge(a, b). Edge(b, c). " + UNRELATED
        queries = [
            parse_query("Reach(a, ?y)"),
            parse_query("Reach(?x, ?y)"),
            parse_query("Reach(b, ?y)"),
        ]
        session = _cold_session(facts)
        answers = session.answer_many(queries)
        assert not session.is_cold
        assert session.demand_stats["queries"] == 1
        assert session.demand_stats["cutovers"] == 0
        assert answers == _closure_session(facts).answer_many(queries)

    def test_demand_on_a_warm_mutated_session_sees_the_mutations(self):
        from repro.datalog import QueryOptions

        session = _closure_session("Edge(a, b). Edge(b, c).")
        session.add_facts(parse_facts("Edge(c, d)."))
        session.retract_facts(parse_facts("Edge(a, b)."))
        query = parse_query("Reach(b, ?y)")
        demand = session.answer(query, options=QueryOptions(strategy="demand"))
        assert demand == session.answer(query)  # materialized reference
        assert len(demand) == 2  # c and d

    def test_demand_stats_accumulate(self):
        from repro.datalog import QueryOptions

        session = _cold_session()
        assert session.demand_stats["queries"] == 0
        session.answer(
            parse_query("Reach(a, ?y)"), options=QueryOptions(strategy="demand")
        )
        session.answer(
            parse_query("Reach(b, ?y)"), options=QueryOptions(strategy="demand")
        )
        stats = session.demand_stats
        assert stats["queries"] == 2
        assert stats["magic_facts"] >= 2
        assert 0 < stats["predicates_touched"] <= stats["predicates_total"]

    def test_invalid_strategy_is_rejected_at_options_construction(self):
        from repro.datalog import QueryOptions

        with pytest.raises(ValueError, match="strategy"):
            QueryOptions(strategy="telepathy")


class TestAutoCutover:
    """``auto`` pays for demand evaluation only up to a work budget.

    Under ``auto``, a cold session's demand evaluation runs with a budget of
    ``base_fact_count`` work units (rule applications plus join steps) and
    cuts over to the materialization once it spends more.  These tests pin
    that by work counts, which are the same on every machine and under
    every hash seed: the unbudgeted demand evaluation's ``work`` decides
    whether ``auto`` cuts over, whichever side is cheaper.
    """

    #: a complete graph: demand for everything reaching n0 spreads to every
    #: node and does more work than the whole materialization
    DENSE = " ".join(
        f"Edge(n{i}, n{j})." for i in range(6) for j in range(6) if i != j
    )

    @staticmethod
    def _work(result):
        return result.rule_applications + result.join_stats["batches"]

    def test_a_spreading_demand_cuts_over_to_the_materialization(self):
        program = DatalogProgram(parse_program(CLOSURE).tgds)
        facts = tuple(parse_facts(self.DENSE))
        query = parse_query("Reach(?x, n0)")
        budget = len(facts)
        demand = demand_answer(program, facts, query).report
        assert demand.work > self._work(materialize(program, facts)) > budget
        with pytest.raises(BudgetExceeded) as spent:
            demand_answer(program, facts, query, max_work=budget)
        # checked after every round: stopped one round past the budget,
        # before the unbudgeted evaluation's last round
        assert budget < spent.value.spent < demand.work
        assert spent.value.rounds < demand.rounds

        session = _cold_session(self.DENSE)
        assert session.base_fact_count == budget
        assert session.resolve_strategy(query) == "demand"
        answers = session.answer(query)
        assert not session.is_cold
        assert session.demand_stats["cutovers"] == 1
        assert session.demand_stats["queries"] == 0
        assert answers == _closure_session(self.DENSE).answer(query)
        assert len(answers) == 6
        # warm now: later auto queries go materialized
        assert session.resolve_strategy(query) == "materialized"

    def test_a_selective_demand_stays_within_budget_and_cold(self):
        program = DatalogProgram(parse_program(CLOSURE).tgds)
        text = "Edge(a, b). Edge(b, c). " + UNRELATED
        facts = tuple(parse_facts(text))
        query = parse_query("Reach(a, ?y)")
        demand = demand_answer(program, facts, query).report
        assert demand.work <= len(facts) < self._work(materialize(program, facts))
        session = _cold_session(text)
        answers = session.answer(query)
        assert session.is_cold
        assert session.demand_stats["queries"] == 1
        assert session.demand_stats["cutovers"] == 0
        assert answers == _closure_session(text).answer(query)

    def test_a_chain_cuts_over_although_demand_is_the_cheaper_side(self):
        # the budget bounds auto against materialization only: along a
        # chain, demand advances one hop per round and spends 4N + 2 units,
        # more than the N base facts, while materializing the closure costs
        # N(N + 1)/2 + 2N + 1; auto pays both, about N/8 times the demand
        program = DatalogProgram(parse_program(CLOSURE).tgds)
        n = 50
        text = " ".join(f"Edge(n{i}, n{i + 1})." for i in range(n))
        facts = tuple(parse_facts(text))
        query = parse_query("Reach(n0, ?y)")
        demand = demand_answer(program, facts, query).report
        full = self._work(materialize(program, facts))
        assert demand.work == 4 * n + 2
        assert full == n * (n + 1) // 2 + 2 * n + 1
        with pytest.raises(BudgetExceeded) as spent:
            demand_answer(program, facts, query, max_work=n)
        assert n < spent.value.spent < demand.work
        assert spent.value.spent + full > (n // 8) * demand.work

        session = _cold_session(text)
        answers = session.answer(query)
        assert session.demand_stats["cutovers"] == 1
        assert not session.is_cold
        assert answers == _closure_session(text).answer(query)
        assert len(answers) == n

    def test_explicit_demand_is_never_budgeted(self):
        from repro.datalog import QueryOptions

        session = _cold_session(self.DENSE)
        query = parse_query("Reach(?x, n0)")
        answers = session.answer(query, options=QueryOptions(strategy="demand"))
        assert session.is_cold
        assert session.demand_stats["cutovers"] == 0
        assert answers == _closure_session(self.DENSE).answer(query)
