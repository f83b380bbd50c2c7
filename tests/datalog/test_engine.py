"""Unit tests for semi-naive Datalog materialization."""

import pickle

import pytest

from repro.datalog.engine import BudgetExceeded, DatalogEngine, materialize
from repro.datalog.program import DatalogProgram
from repro.logic.atoms import Predicate
from repro.logic.parser import parse_facts, parse_program, parse_tgds
from repro.logic.terms import Constant

Reach = Predicate("Reach", 2)
Node = Predicate("Node", 1)
a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")


class TestTransitiveClosure:
    def _closure_program(self):
        return parse_program(
            """
            Edge(?x, ?y) -> Reach(?x, ?y).
            Reach(?x, ?y), Edge(?y, ?z) -> Reach(?x, ?z).
            Edge(a, b). Edge(b, c). Edge(c, d).
            """
        )

    def test_full_closure_is_computed(self):
        program = self._closure_program()
        result = materialize(program.tgds, program.instance)
        expected_pairs = {
            (a, b), (a, c), (a, d), (b, c), (b, d), (c, d),
        }
        reach_facts = {f for f in result.facts() if f.predicate == Reach}
        assert {(f.args[0], f.args[1]) for f in reach_facts} == expected_pairs

    def test_base_facts_are_retained(self):
        program = self._closure_program()
        result = materialize(program.tgds, program.instance)
        assert Predicate("Edge", 2)(a, b) in result

    def test_statistics_are_reported(self):
        program = self._closure_program()
        result = materialize(program.tgds, program.instance)
        assert result.derived_count == 6
        assert result.rounds >= 3
        assert result.rule_applications >= 6

    def test_max_work_below_the_closure_raises(self):
        # a budget short of the closure's work stops the call with an
        # exception, never with a store below the fixpoint
        program = self._closure_program()
        engine = DatalogEngine(DatalogProgram(program.tgds))
        full = engine.materialize(program.instance)
        work = full.rule_applications + full.join_stats["batches"]
        with pytest.raises(BudgetExceeded):
            engine.materialize(program.instance, max_work=work - 1)

    def test_len_and_contains(self):
        program = self._closure_program()
        result = materialize(program.tgds, program.instance)
        assert len(result) == 3 + 6
        assert Reach(a, d) in result


class TestEngineBehaviour:
    def test_empty_program_returns_input(self):
        program = DatalogProgram([])
        result = DatalogEngine(program).materialize([Reach(a, b)])
        assert result.facts() == {Reach(a, b)}
        assert result.derived_count == 0

    def test_no_duplicate_derivations(self):
        program = parse_program(
            """
            A(?x) -> B(?x).
            C(?x) -> B(?x).
            A(a). C(a).
            """
        )
        result = materialize(program.tgds, program.instance)
        assert result.derived_count == 1

    def test_constants_in_rule_heads(self):
        program = parse_program(
            """
            Trigger(?x) -> Alarm(central).
            Trigger(t1).
            """
        )
        result = materialize(program.tgds, program.instance)
        assert Predicate("Alarm", 1)(Constant("central")) in result

    def test_constants_in_rule_bodies_filter_matches(self):
        program = parse_program(
            """
            R(a, ?y) -> Hit(?y).
            R(a, b). R(c, d).
            """
        )
        result = materialize(program.tgds, program.instance)
        assert Predicate("Hit", 1)(b) in result
        assert Predicate("Hit", 1)(d) not in result

    def test_repeated_variables_in_body(self):
        program = parse_program(
            """
            R(?x, ?x) -> Diag(?x).
            R(a, a). R(a, b).
            """
        )
        result = materialize(program.tgds, program.instance)
        diag = Predicate("Diag", 1)
        assert diag(a) in result
        assert diag(b) not in result

    def test_mutual_recursion(self):
        program = parse_program(
            """
            Even(?x), Next(?x, ?y) -> Odd(?y).
            Odd(?x), Next(?x, ?y) -> Even(?y).
            Even(n0). Next(n0, n1). Next(n1, n2). Next(n2, n3).
            """
        )
        result = materialize(program.tgds, program.instance)
        assert Predicate("Odd", 1)(Constant("n3")) in result
        assert Predicate("Even", 1)(Constant("n2")) in result

    def test_rewriting_fixpoint_matches_oracle(self, running):
        """Materializing the HypDR rewriting reproduces the oracle answers."""
        from repro.chase import certain_base_facts
        from repro.rewriting import rewrite

        tgds, instance = running
        rewriting = rewrite(tgds, algorithm="hypdr")
        result = materialize(rewriting.program(), instance)
        base_facts = {f for f in result.facts() if f.is_base_fact}
        assert base_facts == certain_base_facts(instance, tgds)


class TestSemiNaiveBookkeeping:
    """Regression tests for the engine's round/derivation accounting."""

    def _chain_program(self, length: int):
        rules = "\n".join(
            f"P{index}(?x) -> P{index + 1}(?x)." for index in range(length)
        )
        return parse_program(rules + "\nP0(a).")

    def test_rounds_track_derivation_depth(self):
        # A length-4 chain needs exactly four semi-naive rounds: each round
        # derives the single fact enabling the next rule.
        program = self._chain_program(4)
        result = materialize(program.tgds, program.instance)
        assert result.rounds == 4
        assert result.derived_count == 4

    def test_rounds_zero_when_nothing_fires(self):
        program = parse_program(
            """
            A(?x) -> B(?x).
            C(c).
            """
        )
        result = materialize(program.tgds, program.instance)
        assert result.rounds == 0
        assert result.derived_count == 0
        assert len(result) == 1

    def test_max_work_raises_at_every_budget_below_the_fixpoint(self):
        # each chain link costs one join step and one rule application, in
        # round 0 and in rounds 1-3; the check after each round stops the
        # call at most one round past its budget
        program = self._chain_program(4)
        engine = DatalogEngine(DatalogProgram(program.tgds))
        for budget in range(8):
            with pytest.raises(BudgetExceeded) as spent:
                engine.materialize(program.instance, max_work=budget)
            rounds = budget // 2
            assert (spent.value.spent, spent.value.rounds) == (2 * rounds + 2, rounds)

    def test_max_work_at_or_above_the_fixpoint_is_harmless(self):
        program = self._chain_program(3)
        engine = DatalogEngine(DatalogProgram(program.tgds))
        uncapped = engine.materialize(program.instance)
        work = uncapped.rule_applications + uncapped.join_stats["batches"]
        for budget in (work, 50 * work):
            capped = engine.materialize(program.instance, max_work=budget)
            assert capped.facts() == uncapped.facts()
            assert capped.rounds == uncapped.rounds == 3

    def test_max_work_raises_once_the_work_passes_it(self):
        # work is rule applications plus join steps: one of each per chain
        # link, in round 0 and in semi-naive rounds 1-3
        program = self._chain_program(4)
        engine = DatalogEngine(DatalogProgram(program.tgds))
        full = engine.materialize(program.instance)
        work = full.rule_applications + full.join_stats["batches"]
        assert work == 8
        assert engine.materialize(program.instance, max_work=work).facts() == full.facts()
        with pytest.raises(BudgetExceeded) as spent:
            engine.materialize(program.instance, max_work=work - 1)
        assert (spent.value.limit, spent.value.spent, spent.value.rounds) == (7, 8, 3)
        assert str(spent.value) == "work budget of 7 spent: 8 units after 3 rounds"
        # a pool worker hands its exceptions back pickled
        copy = pickle.loads(pickle.dumps(spent.value))
        assert (copy.limit, copy.spent, copy.rounds, str(copy)) == (
            7, 8, 3, str(spent.value)
        )
        # checked after round 0 too: the first rule's join and application
        with pytest.raises(BudgetExceeded) as spent:
            engine.materialize(program.instance, max_work=1)
        assert (spent.value.spent, spent.value.rounds) == (2, 0)

    def test_derived_count_is_new_facts_only(self):
        # deriving a fact that is already in the base instance counts nothing
        program = parse_program(
            """
            Edge(?x, ?y) -> Reach(?x, ?y).
            Edge(a, b). Reach(a, b).
            """
        )
        result = materialize(program.tgds, program.instance)
        assert result.derived_count == 0
        assert len(result) == 2

    def test_derived_count_matches_store_growth(self):
        program = self._closure_or_none()
        result = materialize(program.tgds, program.instance)
        assert result.derived_count == len(result) - len(program.instance)

    def _closure_or_none(self):
        return parse_program(
            """
            Edge(?x, ?y) -> Reach(?x, ?y).
            Reach(?x, ?y), Edge(?y, ?z) -> Reach(?x, ?z).
            Edge(a, b). Edge(b, c). Edge(c, d).
            """
        )


CLOSURE_RULES = """
Edge(?x, ?y) -> Reach(?x, ?y).
Reach(?x, ?y), Edge(?y, ?z) -> Reach(?x, ?z).
"""


class TestRetraction:
    """Backward/Forward retraction through the compiled join plans."""

    def _closure_engine(self, facts):
        program = parse_program(CLOSURE_RULES + facts)
        engine = DatalogEngine(DatalogProgram(program.tgds))
        result = engine.materialize(program.instance)
        return engine, result.store

    def _surviving_rebuild(self, store):
        """The retraction contract's reference point: re-materialize the base."""
        program = parse_program(CLOSURE_RULES)
        return materialize(DatalogProgram(program.tgds), store.base_facts()).facts()

    def test_chain_retraction_unwinds_consequences(self):
        engine, store = self._closure_engine("Edge(a, b). Edge(b, c). Edge(c, d).")
        result = engine.retract(store, parse_facts("Edge(b, c)."))
        assert result.retracted_facts == 1
        assert result.net_removed > 1  # the edge plus downstream Reach facts
        assert Reach(a, b) in store
        assert Reach(b, c) not in store
        assert Reach(a, d) not in store
        assert store.facts() == self._surviving_rebuild(store)

    def test_diamond_keeps_the_surviving_path(self):
        # two routes from a to d; deleting one must keep Reach(a, d), and
        # B/F finds the other route before removing it
        engine, store = self._closure_engine(
            "Edge(a, b). Edge(b, d). Edge(a, c). Edge(c, d)."
        )
        result = engine.retract(store, parse_facts("Edge(b, d)."))
        assert Reach(a, d) in store
        assert Reach(b, d) not in store
        assert result.overdeleted == 1  # only Reach(b, d)
        assert result.rederived == 0
        assert result.net_removed == 2
        assert store.facts() == self._surviving_rebuild(store)

    def test_cycle_retraction_breaks_spurious_support(self):
        # the classic retraction trap: facts in a derivation cycle support
        # each other, so naive counting would never remove them
        engine, store = self._closure_engine("Edge(a, b). Edge(b, a). Edge(b, c).")
        engine.retract(store, parse_facts("Edge(b, a)."))
        assert Reach(b, a) not in store
        assert Reach(a, a) not in store
        assert Reach(a, c) in store
        assert store.facts() == self._surviving_rebuild(store)

    def test_every_body_fact_of_an_instance_is_checked(self):
        # F(a) needs A(a) and B(a).  A(a)'s only surviving proof runs
        # through G(a), whose search meets F(a) itself before it finds
        # H(a); B(a) must still be checked, or F(a) is removed although
        # SH(a) and SB(a) prove it
        program = parse_program(
            """
            A(?x), B(?x) -> F(?x).
            G(?x) -> A(?x).
            F(?x) -> G(?x).
            H(?x) -> G(?x).
            SH(?x) -> H(?x).
            SB(?x) -> B(?x).
            SA(?x) -> A(?x).
            SF(?x) -> F(?x).
            SA(a). SF(a). SH(a). SB(a).
            """
        )
        datalog = DatalogProgram(program.tgds)
        engine = DatalogEngine(datalog)
        store = engine.materialize(program.instance).store
        result = engine.retract(store, parse_facts("SA(a). SF(a)."))
        assert Predicate("F", 1)(a) in store
        assert result.net_removed == 2
        assert store.facts() == materialize(datalog, store.base_facts()).facts()

    def test_retracting_still_derivable_fact_demotes_it(self):
        program = parse_program(
            "Edge(?x, ?y) -> Link(?x, ?y). Edge(a, b). Link(a, b)."
        )
        engine = DatalogEngine(DatalogProgram(program.tgds))
        store = engine.materialize(program.instance).store
        Link = Predicate("Link", 2)
        result = engine.retract(store, [Link(a, b)])
        # un-asserted but still entailed by Edge(a, b): stays, as derived
        assert result.retracted_facts == 1
        assert result.net_removed == 0
        assert Link(a, b) in store
        assert Link(a, b) not in store.base_facts()

    def test_never_added_and_derived_only_inputs_are_ignored(self):
        engine, store = self._closure_engine("Edge(a, b). Edge(b, c).")
        size_before = len(store)
        result = engine.retract(
            store, [Reach(a, c), Predicate("Edge", 2)(c, d), Node(a)]
        )
        assert result.retracted_facts == 0
        assert result.ignored_facts == 3
        assert result.net_removed == 0
        assert len(store) == size_before

    def test_retract_everything_empties_the_store(self):
        engine, store = self._closure_engine("Edge(a, b). Edge(b, c).")
        engine.retract(store, list(store.base_facts()))
        assert len(store) == 0
        assert store.base_count == 0

    def test_retraction_reports_join_stats(self):
        engine, store = self._closure_engine("Edge(a, b). Edge(b, c). Edge(c, d).")
        result = engine.retract(store, parse_facts("Edge(b, c)."))
        assert result.join_stats is not None
        assert result.join_stats.get("deletion_batches", 0) > 0

    def test_net_removal_is_bounded_by_the_overdeletion(self):
        # retraction only removes what it retracted or over-deleted, and a
        # retracted fact that is still derivable stays; nothing is re-derived
        names = [chr(ord("a") + i) for i in range(8)]
        edges = ". ".join(
            f"Edge({left}, {right})" for left, right in zip(names, names[1:])
        )
        engine, store = self._closure_engine(
            f"{edges}. Edge(a, e). Edge(e, b). Edge(h, a)."
        )
        for edge in ("Edge(c, d).", "Edge(a, e).", "Edge(h, a).", "Edge(a, b)."):
            result = engine.retract(store, parse_facts(edge))
            assert result.retracted_facts == 1
            assert result.rounds > 0
            assert 0 <= result.net_removed
            assert result.net_removed <= result.retracted_facts + result.overdeleted
            assert result.rederived == 0
            assert store.facts() == self._surviving_rebuild(store)

    def test_long_chain_with_a_bypass_matches_the_rebuild(self):
        # n0 -> n1 -> ... -> n2000 plus the bypass n999 -> n1001.  Retracting
        # n1000 -> n1001 leaves every node reachable, and proving
        # Reach(n1001) walks back about a thousand facts to the source:
        # deeper than the interpreter's recursion limit
        rules = """
        Source(?x) -> Reach(?x).
        Reach(?x), Edge(?x, ?y) -> Reach(?y).
        """
        names = [f"n{i}" for i in range(2001)]
        edges = " ".join(f"Edge({u}, {v})." for u, v in zip(names, names[1:]))
        program = parse_program(f"{rules} Source(n0). {edges} Edge(n999, n1001).")
        datalog = DatalogProgram(program.tgds)
        engine = DatalogEngine(datalog)
        store = engine.materialize(program.instance).store
        assert store.count(Predicate("Reach", 1)) == 2001

        result = engine.retract(store, parse_facts("Edge(n1000, n1001)."))
        assert result.net_removed == 1
        assert store.facts() == materialize(datalog, store.base_facts()).facts()

        # retracting the bypass too cuts the tail off, one fact per round
        result = engine.retract(store, parse_facts("Edge(n999, n1001)."))
        assert result.overdeleted == 1000
        assert store.facts() == materialize(datalog, store.base_facts()).facts()

    def test_mutual_support_needs_one_base_support(self):
        # P(a) and Q(a) derive each other, and each has a base support
        rules = """
        P(?x) -> Q(?x).
        Q(?x) -> P(?x).
        SupP(?x) -> P(?x).
        SupQ(?x) -> Q(?x).
        """
        P, Q = Predicate("P", 1), Predicate("Q", 1)
        program = parse_program(rules + "SupP(a). SupQ(a).")
        datalog = DatalogProgram(program.tgds)
        engine = DatalogEngine(datalog)

        def fresh_store():
            return engine.materialize(program.instance).store

        store = fresh_store()
        result = engine.retract(store, parse_facts("SupP(a)."))
        assert P(a) in store and Q(a) in store
        assert result.net_removed == 1

        store = fresh_store()
        result = engine.retract(store, parse_facts("SupP(a). SupQ(a)."))
        assert P(a) not in store and Q(a) not in store
        assert result.net_removed == 4
        assert len(store) == 0

        store = fresh_store()
        engine.retract(store, parse_facts("SupQ(a)."))
        engine.retract(store, parse_facts("SupP(a)."))
        assert P(a) not in store and Q(a) not in store
        assert len(store) == 0
