"""Unit tests for compiled hash-join plans (repro.datalog.plan)."""

from repro.datalog.engine import DatalogEngine, compiled_engine, materialize
from repro.datalog.store import FactStore
from repro.datalog.plan import (
    JoinPlanStats,
    PlanVariant,
    RulePlan,
    compiled_body_plan,
)
from repro.datalog.program import DatalogProgram
from repro.datalog.session import ReasoningSession
from repro.logic.atoms import Predicate
from repro.logic.parser import parse_program
from repro.logic.rules import Rule
from repro.logic.terms import Constant, Variable
from repro.obs import rate

Edge = Predicate("Edge", 2)
Reach = Predicate("Reach", 2)
R = Predicate("R", 2)
S = Predicate("S", 1)
T = Predicate("T", 3)
x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c = Constant("a"), Constant("b"), Constant("c")


def closure_rule() -> Rule:
    return Rule((Reach(x, y), Edge(y, z)), Reach(x, z))


class TestAtomOrdering:
    def test_pivot_runs_first(self):
        variant = PlanVariant(closure_rule().body, pivot=1)
        assert variant.order[0] == 1

    def test_pivot_connected_atom_follows(self):
        # after Edge(y, z), Reach(x, y) joins on the bound y
        variant = PlanVariant(closure_rule().body, pivot=1)
        assert variant.order == (1, 0)
        probe = variant.steps[1]
        assert probe.key_positions == (1,)  # position of ?y in Reach(x, y)
        assert probe.key_sources == (("var", y),)

    def test_constant_heavy_atom_scans_first_without_pivot(self):
        body = (R(x, y), R(a, x))
        variant = PlanVariant(body, pivot=None)
        assert variant.order[0] == 1  # R(a, ?x) is the more selective scan

    def test_ordering_is_deterministic_on_ties(self):
        body = (S(x), S(y))
        assert PlanVariant(body, pivot=None).order == (0, 1)

    def test_disconnected_atom_ordered_last(self):
        body = (S(z), R(x, y), Edge(y, z))
        variant = PlanVariant(body, pivot=1)
        # after R(x,y): Edge shares y; S(z) only joins after Edge binds z
        assert variant.order == (1, 2, 0)


class TestKeySelection:
    def test_constants_become_key_positions(self):
        variant = PlanVariant((R(a, y),), pivot=None)
        step = variant.steps[0]
        assert step.key_positions == (0,)
        assert step.key_sources == (("const", a),)

    def test_bound_variable_repeated_widens_the_key(self):
        # T(y, y, z) after Edge(y, z): both occurrences of the bound y and
        # the bound z are key columns — nothing is left to post-check
        variant = PlanVariant((Edge(y, z), T(y, y, z)), pivot=0)
        step = variant.steps[1]
        assert step.key_positions == (0, 1, 2)
        assert step.checks == ()

    def test_repeated_new_variable_becomes_check(self):
        variant = PlanVariant((R(x, x),), pivot=None)
        step = variant.steps[0]
        assert step.key_positions == ()
        assert step.checks == ((1, 0),)
        assert step.outputs == ((x, 0),)

    def test_new_variables_become_outputs(self):
        variant = PlanVariant(closure_rule().body, pivot=1)
        scan, probe = variant.steps
        assert scan.outputs == ((y, 0), (z, 1))
        assert probe.outputs == ((x, 0),)


class TestShortCircuits:
    def test_empty_delta_short_circuit(self):
        variant = PlanVariant(closure_rule().body, pivot=1)
        store = FactStore([Reach(a, b), Edge(b, c)])
        stats = JoinPlanStats()
        batch = variant.execute(store, {}, stats)  # no Edge facts in delta
        assert batch.size == 0
        assert stats.empty_delta_short_circuits == 1
        assert stats.batches == 0  # the store was never probed

    def test_empty_relation_short_circuit(self):
        variant = PlanVariant(closure_rule().body, pivot=1)
        store = FactStore([Edge(a, b)])  # no Reach facts at all
        stats = JoinPlanStats()
        delta = {Edge: [store.find_fact(Edge(a, b))[1]]}
        batch = variant.execute(store, delta, stats)
        assert batch.size == 0
        assert stats.empty_relation_short_circuits == 1
        assert stats.batches == 0

    def test_non_empty_execution_counts_batches(self):
        variant = PlanVariant(closure_rule().body, pivot=1)
        store = FactStore([Reach(a, b), Edge(b, c)])
        stats = JoinPlanStats()
        delta = {Edge: [store.find_fact(Edge(b, c))[1]]}
        batch = variant.execute(store, delta, stats)
        assert batch.size == 1
        # batch columns carry term IDs; decode at the boundary
        assert store.terms.decode_column(batch.columns[x]) == [a]
        assert store.terms.decode_column(batch.columns[z]) == [c]
        assert stats.batches == 2
        assert stats.rows_emitted == 1


class TestBatchesAreColumnar:
    def test_columns_are_per_variable_lists(self):
        variant = PlanVariant((Edge(x, y),), pivot=None)
        store = FactStore([Edge(a, b), Edge(a, c)])
        batch = variant.execute(store, None, JoinPlanStats())
        assert batch.size == 2
        assert set(batch.columns) == {x, y}
        assert sorted(store.terms.decode_column(batch.columns[y]), key=str) == [b, c]


class TestRulePlan:
    def test_variants_are_cached(self):
        plan = RulePlan(closure_rule())
        assert plan.variant(0) is plan.variant(0)
        assert plan.compiled_variant_count == 1
        plan.variant(None)
        assert plan.compiled_variant_count == 2

    def test_head_projection_with_constants(self):
        rule = Rule((S(x),), R(x, a))
        plan = RulePlan(rule)
        store = FactStore([S(b)])
        batch = plan.variant(None).execute(store, None, JoinPlanStats())
        assert list(plan.project_head(batch, store)) == [R(b, a)]

    def test_shape_mentions_scan_and_keyed_join(self):
        plan = RulePlan(closure_rule())
        shape = plan.shape()
        assert "scan" in shape and "[k1]" in shape


class TestHeadBoundDerivations:
    """``RulePlan.derivations``: backward chaining from a head row."""

    @staticmethod
    def _instances(plan, store, fact):
        _, row = store.encode_fact(fact)
        return {
            tuple(store.decode_row(predicate, body_row) for predicate, body_row in body)
            for body in plan.derivations(store, row, JoinPlanStats())
        }

    def test_head_variables_lead_the_body_order(self):
        # with ?x and ?z bound, no atom is scanned: Reach(x, y) probes on
        # ?x, then Edge(y, z) probes on ?y and ?z together
        variant = PlanVariant(closure_rule().body, None, closure_rule().head.variable_set())
        assert variant.order == (0, 1)
        assert variant.steps[0].key_positions == (0,)
        assert variant.steps[1].key_positions == (0, 1)

    def test_every_instance_of_a_head_row_is_enumerated(self):
        plan = RulePlan(closure_rule())
        store = FactStore(
            [Reach(a, b), Reach(a, c), Reach(b, c), Edge(b, a), Edge(c, a), Edge(c, b)]
        )
        assert self._instances(plan, store, Reach(a, a)) == {
            (Reach(a, b), Edge(b, a)),
            (Reach(a, c), Edge(c, a)),
        }
        assert self._instances(plan, store, Reach(c, a)) == set()
        # compiled once, then reused; the pivot-variant count leaves it out
        assert plan.head_bound_variant() is plan.head_bound_variant()
        assert plan.compiled_variant_count == 0

    def test_head_constants_and_repeated_variables_filter_the_row(self):
        plan = RulePlan(Rule((R(x, y),), T(x, x, y)))
        store = FactStore([R(a, b)])
        assert self._instances(plan, store, T(a, a, b)) == {(R(a, b),)}
        assert self._instances(plan, store, T(a, b, b)) == set()
        constant_head = RulePlan(Rule((S(x),), R(x, a)))
        store = FactStore([S(b)])
        assert self._instances(constant_head, store, R(b, a)) == {(S(b),)}
        assert self._instances(constant_head, store, R(b, b)) == set()

    def test_a_body_the_head_fully_binds_yields_one_instance_at_most(self):
        # every step is a fully keyed probe for the one row the head fixes
        plan = RulePlan(Rule((R(x, y), S(y)), T(x, y, a)))
        assert not any(step.outputs for step in plan.head_bound_variant().steps)
        store = FactStore([R(a, b), S(b)])
        assert self._instances(plan, store, T(a, b, a)) == {(R(a, b), S(b))}
        store.remove(S(b))
        assert self._instances(plan, store, T(a, b, a)) == set()


class TestKeyIndexMaintenance:
    def test_index_is_updated_incrementally(self):
        store = FactStore([Edge(a, b)])
        index = store.key_index(Edge, (0,))
        a_id = store.terms.lookup(a)
        assert [store.decode_row(Edge, row) for row in index[a_id]] == [Edge(a, b)]
        store.add(Edge(a, c))
        assert {store.decode_row(Edge, row) for row in index[a_id]} == {
            Edge(a, b),
            Edge(a, c),
        }

    def test_a_fully_keyed_step_tests_membership_without_an_index(self):
        # whichever atom leads, the other is keyed on every argument, so
        # each probe is a row lookup and no full-key index is built
        both = Predicate("Both", 2)
        program = DatalogProgram([Rule((Edge(x, y), R(x, y)), both(x, y))])
        engine = DatalogEngine(program)
        store = engine.materialize(
            [Edge(a, b), Edge(b, c), R(a, b), R(c, b), R(a, a)]
        ).store
        assert store.relation(both) == frozenset({both(a, b)})
        engine.extend(store, [R(b, c), Edge(a, a)])
        assert store.relation(both) == frozenset({both(a, b), both(b, c), both(a, a)})
        assert store.stats()["key_indexes"] == 0

    def test_multi_column_keys_are_tuples(self):
        store = FactStore([T(a, b, c)])
        index = store.key_index(T, (0, 2))
        key = (store.terms.lookup(a), store.terms.lookup(c))
        assert [store.decode_row(T, row) for row in index[key]] == [T(a, b, c)]


class TestEngineCache:
    def test_same_program_shares_one_engine(self):
        program = parse_program("Edge(?x, ?y) -> Reach(?x, ?y).")
        datalog = DatalogProgram(program.tgds)
        assert compiled_engine(datalog) is compiled_engine(DatalogProgram(program.tgds))

    def test_session_join_stats_sum_the_calls(self):
        program = parse_program(
            """
            Edge(?x, ?y) -> Reach(?x, ?y).
            Reach(?x, ?y), Edge(?y, ?z) -> Reach(?x, ?z).
            Edge(a, b). Edge(b, c).
            """
        )
        result = materialize(program.tgds, program.instance)
        assert result.join_stats["rows_emitted"] >= result.derived_count
        session = ReasoningSession(DatalogProgram(program.tgds), program.instance)
        before = session.join_stats
        calls = [session.add_facts([Edge(c, a)]), session.retract_facts([Edge(a, b)])]
        after = session.join_stats
        for name in JoinPlanStats.names:
            assert after[name] == before[name] + sum(
                call.join_stats[name] for call in calls
            ), name
        assert after["deletion_batches"] > 0
        assert after["hit_rate"] == rate(after["probe_hits"], after["probes"])
        engine = compiled_engine(DatalogProgram(program.tgds))
        assert engine.compiled_plan_count() >= 1
        assert engine.plan_shapes()


class TestQueryPlanCache:
    def test_compiled_body_plan_is_cached(self):
        body = (Edge(x, y),)
        assert compiled_body_plan(body) is compiled_body_plan(body)


class TestFunctionTermQueries:
    """Bodies with non-ground function terms fall back to unification."""

    def _skolem(self):
        from repro.logic.terms import FunctionSymbol

        return FunctionSymbol("f", 1)

    def test_body_supports_plan_detection(self):
        from repro.datalog.plan import body_supports_plan

        f = self._skolem()
        P = Predicate("P", 1)
        assert body_supports_plan((P(a), P(x)))
        assert body_supports_plan((P(f(a)),))  # ground skolem term = constant
        assert not body_supports_plan((P(f(x)),))

    def test_query_with_non_ground_function_term_unifies(self):
        from repro.datalog.query import ConjunctiveQuery, evaluate_query

        f = self._skolem()
        P = Predicate("P", 1)
        store = FactStore([P(f(a)), P(b)])
        answers = evaluate_query(ConjunctiveQuery((x,), (P(f(x)),)), store)
        assert answers == {(a,)}

    def test_boolean_query_with_ground_function_term(self):
        from repro.datalog.query import boolean_query_holds

        f = self._skolem()
        P = Predicate("P", 1)
        store = FactStore([P(f(a))])
        assert boolean_query_holds((P(f(a)),), store)
        assert not boolean_query_holds((P(f(b)),), store)
