"""Property-based tests for the Datalog engine and the chase oracles."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chase import certain_base_facts, skolem_chase_base_facts
from repro.datalog import DatalogProgram, materialize
from repro.logic.instance import Instance
from repro.logic.rules import datalog_tgd_to_rule
from repro.logic.substitution import Substitution
from repro.unification.matching import match_conjunction_into_set

from .strategies import base_instances, guarded_tgd_sets

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _naive_fixpoint(rules, facts):
    """Reference implementation: naive bottom-up evaluation."""
    known = set(facts)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            for match in match_conjunction_into_set(rule.body, tuple(known)):
                fact = match.apply_atom(rule.head)
                if fact not in known:
                    known.add(fact)
                    changed = True
    return frozenset(known)


class TestMaterializationProperties:
    @RELAXED
    @given(guarded_tgd_sets(max_size=4), base_instances(max_size=4))
    def test_semi_naive_agrees_with_naive_evaluation(self, tgds, facts):
        datalog_rules = [
            datalog_tgd_to_rule(tgd) for tgd in tgds if tgd.is_datalog_rule
        ]
        instance = Instance(facts)
        expected = _naive_fixpoint(datalog_rules, instance)
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


class TestChurnProperties:
    """Differential: DRed sessions versus from-scratch re-materialization."""

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
