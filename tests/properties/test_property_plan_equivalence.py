"""Differential properties: hash-join plans vs the naive reference evaluator.

The plan-based engine (:mod:`repro.datalog.plan`) must compute exactly the
fixpoint of the retained tuple-at-a-time reference
(:func:`tests.reference_datalog.naive_reference_fixpoint`) on every program and
instance — full materialization, delta propagation through a session, and
top-level query answering all ride the same compiled join pipelines.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog import (
    ConjunctiveQuery,
    DatalogProgram,
    FactStore,
    ReasoningSession,
    evaluate_query,
    materialize,
)
from repro.logic.instance import Instance
from repro.logic.rules import datalog_tgd_to_rule
from repro.unification.solver import solve_match

from ..reference_datalog import naive_reference_fixpoint
from .strategies import base_instances, guarded_tgd_sets

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _datalog_rules(tgds):
    return [datalog_tgd_to_rule(tgd) for tgd in tgds if tgd.is_datalog_rule]


class TestPlanEquivalence:
    @RELAXED
    @given(guarded_tgd_sets(max_size=5), base_instances(max_size=5))
    def test_plan_fixpoint_equals_naive_reference(self, tgds, facts):
        program = DatalogProgram(_datalog_rules(tgds))
        expected = naive_reference_fixpoint(program, Instance(facts))
        result = materialize(program, Instance(facts))
        assert result.facts() == expected

    @RELAXED
    @given(
        guarded_tgd_sets(max_size=4),
        base_instances(max_size=6),
        st.integers(min_value=0, max_value=5),
    )
    def test_delta_propagation_equals_naive_reference(self, tgds, facts, split):
        # split the instance into base + delta; the session propagates the
        # delta through the same compiled plans and must land on the same
        # fixpoint as evaluating everything at once
        program = DatalogProgram(_datalog_rules(tgds))
        split = min(split, len(facts))
        base, delta = facts[:split], facts[split:]
        session = ReasoningSession(program, base)
        session.add_facts(delta)
        expected = naive_reference_fixpoint(program, facts)
        assert session.facts() == expected

    @RELAXED
    @given(guarded_tgd_sets(max_size=4), base_instances(max_size=5))
    def test_query_answers_equal_tuple_at_a_time_matching(self, tgds, facts):
        # every rule body doubles as an existential-free conjunctive query
        # (all variables answering); the plan-based evaluation must agree
        # with direct tuple-at-a-time subset matching
        program = DatalogProgram(_datalog_rules(tgds))
        store = FactStore(facts)
        for rule in program:
            variables = tuple(
                dict.fromkeys(
                    var for atom in rule.body for var in atom.variables()
                )
            )
            query = ConjunctiveQuery(variables, rule.body)
            expected = frozenset(
                tuple(match[var] for var in variables)
                for match in solve_match(rule.body, tuple(store))
            )
            assert evaluate_query(query, store) == expected
