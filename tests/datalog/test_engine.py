"""Unit tests for semi-naive Datalog materialization."""

from repro.datalog.engine import DatalogEngine, materialize
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

    def test_max_rounds_truncates(self):
        program = self._closure_program()
        result = materialize(program.tgds, program.instance, max_rounds=1)
        assert Reach(a, d) not in result

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

    def test_max_rounds_truncates_at_exact_depth(self):
        program = self._chain_program(4)
        p = lambda i: Predicate(f"P{i}", 1)
        for cap in range(1, 5):
            result = materialize(program.tgds, program.instance, max_rounds=cap)
            assert result.rounds == cap
            assert result.derived_count == cap
            assert p(cap)(a) in result
            if cap < 4:
                assert p(cap + 1)(a) not in result

    def test_max_rounds_larger_than_fixpoint_is_harmless(self):
        program = self._chain_program(3)
        capped = materialize(program.tgds, program.instance, max_rounds=50)
        uncapped = materialize(program.tgds, program.instance)
        assert capped.facts() == uncapped.facts()
        assert capped.rounds == uncapped.rounds == 3

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
    """DRed (delete/re-derive) through the compiled join plans."""

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

    def test_diamond_rederives_the_surviving_path(self):
        # two routes from a to d; deleting one must keep Reach(a, d)
        engine, store = self._closure_engine(
            "Edge(a, b). Edge(b, d). Edge(a, c). Edge(c, d)."
        )
        result = engine.retract(store, parse_facts("Edge(b, d)."))
        assert Reach(a, d) in store
        assert Reach(b, d) not in store
        assert result.rederived >= 1
        assert store.facts() == self._surviving_rebuild(store)

    def test_cycle_retraction_breaks_spurious_support(self):
        # the classic DRed trap: facts in a derivation cycle support each
        # other, so naive counting would never remove them
        engine, store = self._closure_engine("Edge(a, b). Edge(b, a). Edge(b, c).")
        engine.retract(store, parse_facts("Edge(b, a)."))
        assert Reach(b, a) not in store
        assert Reach(a, a) not in store
        assert Reach(a, c) in store
        assert store.facts() == self._surviving_rebuild(store)

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
        assert not store.is_base(Link(a, b))

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
        # DRed only removes what it retracted or over-deleted: whatever
        # leaves the store was a suspect first, whether or not re-derivation
        # then brings part of the suspects back
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
            assert store.facts() == self._surviving_rebuild(store)

    def test_large_retraction_uses_batched_rederivation(self):
        # a long chain with a bypass edge: removing a middle edge over-deletes
        # far more than _REDERIVE_BATCH_THRESHOLD facts, steering the seed
        # computation through the set-at-a-time full-plan path
        names = [chr(ord("a") + i) for i in range(12)]
        edges = ". ".join(
            f"Edge({left}, {right})" for left, right in zip(names, names[1:])
        )
        engine, store = self._closure_engine(f"{edges}. Edge(a, f).")
        result = engine.retract(store, parse_facts("Edge(c, d)."))
        assert result.overdeleted > DatalogEngine._REDERIVE_BATCH_THRESHOLD
        assert result.rederived >= 1  # the a-f bypass re-proves a* reachability
        assert store.facts() == self._surviving_rebuild(store)
