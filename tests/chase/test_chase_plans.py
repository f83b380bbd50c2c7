"""Unit tests for the chase plan layer: Skolem head projection, the
semi-naive loop, and the ``chase_plan`` counters."""

from repro.chase.plans import (
    ChasePlanStats,
    SkolemRulePlan,
    compile_chase_plans,
    run_semi_naive_chase,
)
from repro.chase.skolem_chase import SkolemChase
from repro.datalog.plan import BindingBatch
from repro.datalog.store import TermTable
from repro.logic.atoms import Atom, Predicate
from repro.logic.parser import parse_program
from repro.logic.rules import Rule
from repro.logic.terms import Constant, FunctionSymbol, FunctionTerm, Variable
from repro.workloads.instances import generate_instance
from repro.workloads.ontology_suite import generate_suite


P = Predicate("P", 1)
R = Predicate("R", 2)
x, y = Variable("x"), Variable("y")
a, b = Constant("a"), Constant("b")
f = FunctionSymbol("f", 1, is_skolem=True)
g = FunctionSymbol("g", 2, is_skolem=True)


def _encoded_batch(table: TermTable, columns, size: int) -> BindingBatch:
    """Build a batch of term-ID columns from term-valued test columns."""
    return BindingBatch(
        {var: [table.encode(term) for term in values] for var, values in columns.items()},
        size,
    )


class TestHeadProjection:
    def test_plain_variable_and_constant_head(self):
        plan = SkolemRulePlan(Rule((R(x, y),), R(y, a)))
        table = TermTable()
        batch = _encoded_batch(table, {x: [a, b], y: [b, a]}, 2)
        assert list(plan.project_head(batch, table)) == [R(b, a), R(a, a)]

    def test_skolem_term_head(self):
        plan = SkolemRulePlan(Rule((P(x),), R(x, FunctionTerm(f, (x,)))))
        table = TermTable()
        batch = _encoded_batch(table, {x: [a, b]}, 2)
        assert list(plan.project_head(batch, table)) == [
            R(a, FunctionTerm(f, (a,))),
            R(b, FunctionTerm(f, (b,))),
        ]

    def test_nested_and_multi_argument_skolem_terms(self):
        head = R(FunctionTerm(f, (x,)), FunctionTerm(g, (x, y)))
        plan = SkolemRulePlan(Rule((R(x, y),), head))
        table = TermTable()
        batch = _encoded_batch(table, {x: [a], y: [b]}, 1)
        assert list(plan.project_head(batch, table)) == [
            R(FunctionTerm(f, (a,)), FunctionTerm(g, (a, b)))
        ]

    def test_ground_skolem_argument_is_a_constant_source(self):
        # a ground function term in the head needs no per-row construction
        ground = FunctionTerm(f, (a,))
        plan = SkolemRulePlan(Rule((P(x),), R(x, ground)))
        table = TermTable()
        batch = _encoded_batch(table, {x: [b]}, 1)
        assert list(plan.project_head(batch, table)) == [R(b, ground)]

    def test_empty_batch_projects_nothing(self):
        plan = SkolemRulePlan(Rule((P(x),), P(x)))
        assert list(plan.project_head(BindingBatch.empty(), TermTable())) == []


class TestCompileChasePlans:
    def test_function_free_bodies_compile(self):
        rules = (Rule((P(x), R(x, y)), P(y)),)
        plans = compile_chase_plans(rules)
        assert plans is not None and len(plans) == 1

    def test_non_ground_function_term_in_body_rejected(self):
        rules = (Rule((R(x, FunctionTerm(f, (x,))),), P(x)),)
        assert compile_chase_plans(rules) is None

    def test_variants_are_cached(self):
        plan = SkolemRulePlan(Rule((P(x), R(x, y)), P(y)))
        assert plan.variant(0) is plan.variant(0)
        assert plan.compiled_variant_count == 1
        plan.variant(None)
        plan.variant(1)
        assert plan.compiled_variant_count == 3


class TestSemiNaiveLoop:
    def test_transitive_closure(self):
        program = parse_program(
            """
            Edge(?x, ?y) -> Reach(?x, ?y).
            Reach(?x, ?y), Edge(?y, ?z) -> Reach(?x, ?z).
            Edge(a, b). Edge(b, c). Edge(c, d).
            """
        )
        chase = SkolemChase(program.tgds)
        plans = compile_chase_plans(chase.rules)
        stats = ChasePlanStats()
        facts, saturated, rounds = run_semi_naive_chase(
            plans, program.instance, max_term_depth=4, max_facts=1000, stats=stats
        )
        reach = Predicate("Reach", 2)
        assert reach(Constant("a"), Constant("d")) in facts
        assert saturated
        # the delta shrinks every round: longest new path per round
        assert stats.rounds == rounds > 1
        assert stats.delta_facts == len(facts) - len(program.instance)
        assert stats.max_delta >= 1
        assert stats.join.probes > 0  # the recursive join ran as a hash join

    def test_depth_bound_counts_pruned_facts(self):
        program = parse_program(
            """
            Person(?x) -> exists ?y. parent(?x, ?y), Person(?y).
            Person(adam).
            """
        )
        chase = SkolemChase(program.tgds, max_term_depth=2)
        result = chase.run(program.instance)
        assert not result.saturated
        assert result.plan_stats["depth_pruned"] >= 1
        assert result.plan_stats["plans_compiled"] >= 1

    def test_max_facts_cutoff_marks_unsaturated(self):
        program = parse_program(
            """
            Person(?x) -> exists ?y. parent(?x, ?y), Person(?y).
            Person(adam).
            """
        )
        chase = SkolemChase(program.tgds, max_term_depth=50, max_facts=25)
        result = chase.run(program.instance)
        assert not result.saturated
        assert len(result.facts) > 25  # cutoff fires only once the cap is hit


class TestSemiNaiveMatchesNaive:
    def test_cim_example(self, cim):
        tgds, instance = cim
        chase = SkolemChase(tgds)
        semi = chase.run(instance)
        naive = chase.run_naive_reference(instance)
        assert semi.facts == naive.facts
        assert semi.saturated == naive.saturated

    def test_running_example_at_all_depths(self, running):
        tgds, instance = running
        for depth in (0, 1, 2, 4):
            chase = SkolemChase(tgds, max_term_depth=depth)
            semi = chase.run(instance)
            naive = chase.run_naive_reference(instance)
            assert semi.facts == naive.facts, depth
            assert semi.saturated == naive.saturated, depth

    def test_ontology_suite_at_a_truncating_depth(self):
        suite = generate_suite(count=2, seed=2022, min_axioms=10, max_axioms=14)
        for item in suite:
            instance = generate_instance(
                item.tgds, fact_count=50, constant_count=20, seed=int(item.identifier)
            )
            chase = SkolemChase(item.tgds, max_term_depth=2)
            semi = chase.run(instance)
            naive = chase.run_naive_reference(instance)
            assert semi.facts == naive.facts, item.identifier
            assert semi.saturated == naive.saturated, item.identifier
            stats = semi.plan_stats
            assert stats["rounds"] > 0 and stats["probes"] > 0, item.identifier
            assert stats["delta_facts"] == len(semi.facts) - len(instance) > 0

    def test_seed_atom_in_one_delta_each(self):
        # every derived fact enters exactly one delta
        program = parse_program(
            """
            A(?x) -> B(?x). B(?x) -> C(?x). C(?x) -> D(?x).
            A(a). A(b).
            """
        )
        chase = SkolemChase(program.tgds)
        result = chase.run(program.instance)
        assert result.plan_stats["delta_facts"] == len(result.facts) - 2
