"""Property-based tests for the Datalog engine and the chase oracles."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chase import certain_base_facts, skolem_chase_base_facts
from repro.datalog import DatalogProgram, materialize
from repro.logic.atoms import Atom, Predicate
from repro.logic.instance import Instance
from repro.logic.parser import parse_program
from repro.logic.rules import datalog_tgd_to_rule
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant

from ..reference_datalog import naive_reference_fixpoint
from .strategies import base_instances, guarded_tgd_sets

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestMaterializationProperties:
    @RELAXED
    @given(guarded_tgd_sets(max_size=4), base_instances(max_size=4))
    def test_semi_naive_agrees_with_naive_evaluation(self, tgds, facts):
        datalog_rules = [
            datalog_tgd_to_rule(tgd) for tgd in tgds if tgd.is_datalog_rule
        ]
        instance = Instance(facts)
        expected = naive_reference_fixpoint(datalog_rules, instance)
        result = materialize(DatalogProgram(datalog_rules), instance)
        assert result.facts() == expected

    @RELAXED
    @given(guarded_tgd_sets(max_size=4), base_instances(max_size=4))
    def test_materialization_contains_the_input(self, tgds, facts):
        datalog_rules = [
            datalog_tgd_to_rule(tgd) for tgd in tgds if tgd.is_datalog_rule
        ]
        instance = Instance(facts)
        result = materialize(DatalogProgram(datalog_rules), instance)
        assert set(instance) <= result.facts()

    @RELAXED
    @given(guarded_tgd_sets(max_size=4), base_instances(max_size=4))
    def test_materialization_is_idempotent(self, tgds, facts):
        datalog_rules = [
            datalog_tgd_to_rule(tgd) for tgd in tgds if tgd.is_datalog_rule
        ]
        program = DatalogProgram(datalog_rules)
        first = materialize(program, Instance(facts))
        second = materialize(program, first.facts())
        assert second.facts() == first.facts()
        assert second.derived_count == 0


class TestOracleProperties:
    @RELAXED
    @given(guarded_tgd_sets(max_size=3), base_instances(max_size=3))
    def test_certain_facts_contain_the_base_instance_facts(self, tgds, facts):
        instance = Instance(facts)
        certain = certain_base_facts(instance, tgds)
        assert frozenset(facts) <= certain

    @RELAXED
    @given(guarded_tgd_sets(max_size=3), base_instances(max_size=3))
    def test_bounded_skolem_chase_under_approximates_the_oracle(self, tgds, facts):
        instance = Instance(facts)
        certain = certain_base_facts(instance, tgds)
        for depth in (0, 2):
            assert skolem_chase_base_facts(instance, tgds, depth) <= certain

    @RELAXED
    @given(guarded_tgd_sets(max_size=3), base_instances(max_size=3))
    def test_oracle_is_monotone_in_the_tgds(self, tgds, facts):
        instance = Instance(facts)
        smaller = certain_base_facts(instance, tgds[:-1]) if len(tgds) > 1 else frozenset(facts)
        larger = certain_base_facts(instance, tgds)
        assert smaller <= larger


#: reachability with cycles, plus two predicates that derive each other:
#: the shapes where a retraction must find (or rule out) another proof
RECURSIVE_GRAPH_RULES = """
E(?x, ?y) -> R(?x, ?y).
R(?x, ?y), E(?y, ?z) -> R(?x, ?z).
R(?x, ?x) -> Cyc(?x).
Cyc(?x), E(?x, ?y) -> Near(?y).
Near(?x) -> Mark(?x).
Mark(?x), S(?x) -> Near(?x).
Mark(?x), E(?x, ?y) -> Mark(?y).
S(?x) -> Mark(?x).
"""

_NODES = tuple(Constant(f"n{i}") for i in range(5))
_EDGE, _SOURCE = Predicate("E", 2), Predicate("S", 1)
graph_facts = st.one_of(
    st.builds(lambda u, v: Atom(_EDGE, (u, v)), st.sampled_from(_NODES), st.sampled_from(_NODES)),
    st.builds(lambda u: Atom(_SOURCE, (u,)), st.sampled_from(_NODES)),
)


class TestChurnProperties:
    """Differential: B/F sessions versus from-scratch re-materialization."""

    @RELAXED
    @given(
        guarded_tgd_sets(max_size=4),
        base_instances(max_size=6),
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.integers(min_value=0, max_value=63), max_size=4),
            ),
            max_size=6,
        ),
    )
    def test_add_retract_interleavings_match_rebuild(self, tgds, facts, script):
        """Any add/retract interleaving lands on the rebuild-from-base fixpoint.

        The script may retract facts never added and facts present only as
        derivations — both are ignored per the documented contract, so the
        asserted-set model below only shrinks by facts it actually holds.
        """
        from repro.datalog import ReasoningSession

        datalog_rules = [
            datalog_tgd_to_rule(tgd) for tgd in tgds if tgd.is_datalog_rule
        ]
        pool = sorted(set(facts), key=str)
        if not pool:
            return
        program = DatalogProgram(datalog_rules)
        session = ReasoningSession(program)
        asserted = set()
        for is_add, indices in script:
            batch = [pool[index % len(pool)] for index in indices]
            if is_add:
                session.add_facts(batch)
                asserted.update(batch)
            else:
                session.retract_facts(batch)
                asserted.difference_update(batch)
            assert session.store.base_facts() == frozenset(asserted)
            expected = materialize(program, sorted(asserted, key=str))
            assert session.facts() == expected.facts()

    @RELAXED
    @given(
        st.lists(graph_facts, min_size=1, max_size=12),
        st.lists(st.lists(st.integers(min_value=0, max_value=63), max_size=4), max_size=4),
    )
    def test_retractions_on_recursive_graphs_match_rebuild(self, facts, script):
        """Retracting from cyclic, mutually recursive derivations lands on the rebuild.

        The counters account for exactly what left the store: the retracted
        facts that went, plus ``overdeleted`` others, and none put back.
        """
        from repro.datalog import ReasoningSession

        program = DatalogProgram(parse_program(RECURSIVE_GRAPH_RULES).tgds)
        pool = sorted(set(facts), key=str)
        session = ReasoningSession(program, pool)
        asserted = set(pool)
        for indices in script:
            batch = [pool[index % len(pool)] for index in indices]
            before = session.facts()
            retracted = set(batch) & session.store.base_facts()
            result = session.retract_facts(batch)
            asserted.difference_update(batch)
            gone = before - session.facts()
            assert result.retracted_facts == len(retracted)
            assert result.net_removed == len(gone)
            assert result.overdeleted == len(gone - retracted)
            assert result.rederived == 0
            expected = materialize(program, sorted(asserted, key=str))
            assert session.facts() == expected.facts()
