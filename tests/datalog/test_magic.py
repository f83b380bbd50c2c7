"""Tests for the magic-sets demand transformation (repro.datalog.magic)."""

import pytest

from repro.datalog import DatalogProgram, materialize
from repro.datalog.magic import (
    MagicProgram,
    atom_adornment,
    clear_transform_cache,
    demand_answer,
    magic_transform,
    query_goals,
    query_has_bound_arguments,
)
from repro.datalog.query import evaluate_query, parse_query
from repro.logic.atoms import Atom, Predicate
from repro.logic.parser import parse_facts, parse_program
from repro.logic.rules import Rule
from repro.logic.terms import Constant, Variable

CLOSURE = """
Edge(?x, ?y) -> Reach(?x, ?y).
Reach(?x, ?y), Edge(?y, ?z) -> Reach(?x, ?z).
"""


def closure_program():
    return DatalogProgram(parse_program(CLOSURE).tgds)


def assert_demand_matches_materialized(program, facts, query_text):
    query = parse_query(query_text)
    expected = evaluate_query(query, materialize(program, facts).store)
    result = demand_answer(program, tuple(facts), query)
    assert result.answers == expected
    return result


class TestAdornments:
    def test_atom_adornment_marks_ground_positions(self):
        assert atom_adornment(parse_query("Reach(a, ?y)").body[0]) == "bf"
        assert atom_adornment(parse_query("Reach(?x, ?y)").body[0]) == "ff"
        assert atom_adornment(parse_query("Reach(a, b)").body[0]) == "bb"

    def test_query_has_bound_arguments(self):
        assert query_has_bound_arguments(parse_query("Reach(a, ?y)"))
        assert query_has_bound_arguments(parse_query("Edge(?x, ?y), Reach(a, ?y)"))
        assert not query_has_bound_arguments(parse_query("Reach(?x, ?y)"))

    def test_query_goals_cover_idb_atoms_only(self):
        program = closure_program()
        goals = query_goals(program, parse_query("Reach(a, ?y), Edge(?y, ?z)"))
        assert goals == ((Predicate("Reach", 2), "bf"),)

    def test_duplicate_goals_deduplicate(self):
        program = closure_program()
        goals = query_goals(program, parse_query("Reach(a, ?y), Reach(b, ?y)"))
        assert goals == ((Predicate("Reach", 2), "bf"),)


class TestTransformStructure:
    def test_bound_goal_gets_magic_guard_and_copy_rule(self):
        program = closure_program()
        goal = (Predicate("Reach", 2), "bf")
        transformed = magic_transform(program, [goal])
        assert isinstance(transformed, MagicProgram)
        adorned = transformed.adorned_predicates[goal]
        magic = transformed.magic_predicates[goal]
        assert adorned.name == "Reach__bf" and adorned.arity == 2
        assert magic.name == "magic__Reach__bf" and magic.arity == 1
        # one adorned rule per original Reach rule, one copy rule for the goal
        assert transformed.adorned_rule_count == 2
        assert transformed.copy_rule_count == 1
        # every adorned/copy rule of a bound goal is guarded by the magic atom
        for rule in transformed.program.rules:
            if rule.head.predicate is adorned:
                assert rule.body[0].predicate is magic

    def test_linear_recursion_has_no_tautological_magic_rule(self):
        # Reach(?x,?y), Edge(?y,?z) -> Reach(?x,?z) under Reach^bf demands
        # Reach^bf(?x) — already the rule's own guard, so no magic rule
        program = closure_program()
        transformed = magic_transform(program, [(Predicate("Reach", 2), "bf")])
        assert transformed.magic_rule_count == 0
        for rule in transformed.program.rules:
            assert tuple(rule.body) != (rule.head,)

    def test_all_free_goal_has_no_magic_predicate(self):
        program = closure_program()
        goal = (Predicate("Reach", 2), "ff")
        transformed = magic_transform(program, [goal])
        assert transformed.magic_predicates[goal] is None
        assert transformed.seed_facts(parse_query("Reach(?x, ?y)")) == ()

    def test_seed_facts_are_the_query_constants(self):
        program = closure_program()
        transformed = magic_transform(program, [(Predicate("Reach", 2), "bf")])
        seeds = transformed.seed_facts(parse_query("Reach(a, ?y)"))
        magic = transformed.magic_predicates[(Predicate("Reach", 2), "bf")]
        assert seeds == (Atom(magic, (Constant("a"),)),)

    def test_rewrite_query_swaps_idb_atoms_only(self):
        program = closure_program()
        query = parse_query("Reach(a, ?y), Edge(?y, ?z)")
        transformed = magic_transform(program, query_goals(program, query))
        rewritten = transformed.rewrite_query(query)
        assert rewritten.body[0].predicate.name == "Reach__bf"
        assert rewritten.body[1].predicate == Predicate("Edge", 2)
        assert rewritten.answer_variables == query.answer_variables

    def test_fresh_names_avoid_collisions_with_program_predicates(self):
        x, y = Variable("x"), Variable("y")
        taken = Predicate("Reach__bf", 2)
        rules = [
            Rule((Atom(Predicate("Edge", 2), (x, y)),), Atom(Predicate("Reach", 2), (x, y))),
            Rule((Atom(Predicate("Reach", 2), (x, y)),), Atom(taken, (x, y))),
        ]
        program = DatalogProgram(rules)
        transformed = magic_transform(program, [(Predicate("Reach", 2), "bf")])
        adorned = transformed.adorned_predicates[(Predicate("Reach", 2), "bf")]
        assert adorned.name != "Reach__bf"
        assert adorned.name.startswith("Reach__bf")

    def test_transform_is_cached_per_program_and_goal_set(self):
        clear_transform_cache()
        program = closure_program()
        goal = (Predicate("Reach", 2), "bf")
        assert magic_transform(program, [goal]) is magic_transform(program, [goal])
        assert magic_transform(program, [goal]) is not magic_transform(
            program, [(Predicate("Reach", 2), "ff")]
        )


class TestBoundFirstSips:
    """Bindings pass to the body atom with the most bound arguments next."""

    def test_a_body_opening_with_an_unjoined_atom_gets_no_all_free_goal(self):
        # the shape of a rule in the benchmark's first answer KB: written
        # order would demand C17^f, a cross product with every C17 fact
        program = DatalogProgram(parse_program("""
            C17(?x1), r4(?x2, ?x1) -> C20(?x2).
            A(?x) -> C17(?x).
            E(?x, ?y) -> r4(?x, ?y).
        """).tgds)
        c17, r4, c20 = Predicate("C17", 1), Predicate("r4", 2), Predicate("C20", 1)
        transformed = magic_transform(program, [(c20, "b")])
        assert set(transformed.goals) == {(c20, "b"), (r4, "bf"), (c17, "b")}
        (rule,) = [
            rule for rule in transformed.program.rules
            if rule.head.predicate == transformed.adorned_predicates[(c20, "b")]
            and len(rule.body) == 3
        ]
        assert [atom.predicate for atom in rule.body] == [
            transformed.magic_predicates[(c20, "b")],
            transformed.adorned_predicates[(r4, "bf")],
            transformed.adorned_predicates[(c17, "b")],
        ]
        # r4's demand needs only the guard; C17's reads r4's answers
        magic_bodies = {
            rule.head.predicate: [atom.predicate for atom in rule.body]
            for rule in transformed.program.rules
            if rule.head.predicate.name.startswith("magic__")
        }
        assert magic_bodies[transformed.magic_predicates[(r4, "bf")]] == [
            transformed.magic_predicates[(c20, "b")]
        ]
        assert magic_bodies[transformed.magic_predicates[(c17, "b")]] == [
            transformed.magic_predicates[(c20, "b")],
            transformed.adorned_predicates[(r4, "bf")],
        ]
        facts = parse_facts("A(n1). A(n2). E(m, n1). E(k, n3).")
        result = assert_demand_matches_materialized(program, facts, "C20(m)")
        assert result.answers == {()}

    def test_ties_go_to_edb_atoms_then_to_written_order(self):
        # under H^b every body atom has one bound argument: E (EDB) goes
        # first; I and J then tie again and keep their written order
        program = DatalogProgram(parse_program("""
            I(?x, ?y), J(?x, ?z), E(?x, ?w) -> H(?x).
            F(?x, ?y) -> I(?x, ?y).
            F(?x, ?y) -> J(?x, ?y).
        """).tgds)
        h, i, j = Predicate("H", 1), Predicate("I", 2), Predicate("J", 2)
        transformed = magic_transform(program, [(h, "b")])
        (rule,) = [
            rule for rule in transformed.program.rules
            if rule.head.predicate == transformed.adorned_predicates[(h, "b")]
            and len(rule.body) == 4
        ]
        assert [atom.predicate for atom in rule.body] == [
            transformed.magic_predicates[(h, "b")],
            Predicate("E", 2),
            transformed.adorned_predicates[(i, "bf")],
            transformed.adorned_predicates[(j, "bf")],
        ]
        facts = parse_facts("F(a, b). E(a, c). F(d, e).")
        assert_demand_matches_materialized(program, facts, "H(a)")
        assert_demand_matches_materialized(program, facts, "H(d)")


class TestDemandAnswersMatchMaterialized:
    FACTS = "Edge(a, b). Edge(b, c). Edge(c, d). Edge(e, f)."

    @pytest.mark.parametrize(
        "query_text",
        [
            "Reach(a, ?y)",  # bound first position
            "Reach(?x, c)",  # bound second position
            "Reach(a, c)",  # fully bound (boolean)
            "Reach(a, f)",  # fully bound, not entailed
            "Reach(?x, ?y)",  # zero-bound: degenerates to full reachability
            "Reach(a, ?y), Edge(?y, ?z)",  # join with an EDB atom
            "Reach(a, ?y), Reach(b, ?y)",  # two goals, shared adornment
            "Edge(?x, ?y)",  # EDB-only query: no goals at all
        ],
    )
    def test_agrees_on_transitive_closure(self, query_text):
        program = closure_program()
        facts = parse_facts(self.FACTS)
        assert_demand_matches_materialized(program, facts, query_text)

    def test_agrees_when_idb_facts_are_also_asserted(self):
        # Reach facts asserted directly must flow in through the copy rule
        program = closure_program()
        facts = parse_facts("Edge(a, b). Reach(z, a).")
        result = assert_demand_matches_materialized(program, facts, "Reach(z, ?y)")
        assert (Constant("b"),) in result.answers

    def test_static_seed_for_unconditionally_demanded_goal(self):
        # FromA's rule demands Reach(a, ?y) with nothing bound before it:
        # the demand has no prerequisites and becomes a ground seed fact
        program = DatalogProgram(
            parse_program(CLOSURE + "Reach(a, ?y) -> FromA(?y).").tgds
        )
        transformed = magic_transform(program, [(Predicate("FromA", 1), "f")])
        assert len(transformed.static_seeds) == 1
        assert transformed.static_seeds[0].args == (Constant("a"),)
        facts = parse_facts("Edge(a, b). Edge(b, c). Edge(d, e).")
        assert_demand_matches_materialized(program, facts, "FromA(?y)")

    def test_demand_restricts_the_derived_fixpoint(self):
        # demand from 'a' never explores the disconnected component, so the
        # only magic fact is the seed itself (linear recursion re-uses it)
        program = closure_program()
        facts = parse_facts("Edge(a, b). Edge(b, c). Edge(x1, x2). Edge(x2, x3).")
        result = assert_demand_matches_materialized(program, facts, "Reach(a, ?y)")
        assert result.report.magic_facts == 1
        assert result.report.predicates_touched <= result.report.predicates_total
        assert result.answers == {(Constant("b"),), (Constant("c"),)}

    def test_report_counts_the_transform_shape(self):
        program = closure_program()
        result = demand_answer(
            program, parse_facts("Edge(a, b)."), parse_query("Reach(a, ?y)")
        )
        report = result.report
        assert report.adorned_rules == 2
        assert report.copy_rules == 1
        assert report.magic_rules == 0
        assert report.rounds >= 1
        assert report.as_dict()["predicates_total"] == len(program.predicates())


class TestOntologySuiteDifferential:
    def test_demand_agrees_with_materialized_on_rewritten_ontologies(self):
        """Bound point queries over compiled suite rewritings agree both ways."""
        from repro.api import KnowledgeBase
        from repro.datalog.query import QueryOptions
        from repro.workloads.instances import generate_instance
        from repro.workloads.ontology_suite import generate_suite

        checked = 0
        for item in generate_suite(count=2, seed=7, min_axioms=6, max_axioms=14):
            kb = KnowledgeBase.compile(item.tgds)
            instance = tuple(
                generate_instance(
                    item.tgds, fact_count=60, constant_count=12, seed=3
                )
            )
            constants = sorted(
                {arg for fact in instance for arg in fact.args}, key=str
            )
            idb = sorted(
                (p for p in kb.program.idb_predicates() if p.arity >= 1),
                key=lambda p: (p.name, p.arity),
            )
            if not idb or not constants:
                continue
            warm = kb.session(instance)
            for index, pred in enumerate(idb[:4]):
                constant = constants[index % len(constants)]
                free = [f"?x{i}" for i in range(1, pred.arity)]
                query = parse_query(
                    f"{pred.name}({', '.join([str(constant)] + free)})"
                )
                cold = kb.session(instance, defer_materialization=True)
                demand = cold.answer(query, options=QueryOptions(strategy="demand"))
                assert cold.is_cold  # the demand path must not warm it
                assert demand == warm.answer(query)
                checked += 1
        assert checked > 0
