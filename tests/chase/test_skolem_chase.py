"""Unit tests for the depth-bounded Skolem chase."""

from repro.chase.guarded_engine import GuardedChaseReasoner
from repro.chase.skolem_chase import (
    SkolemChase,
    skolem_chase_base_facts,
    skolem_chase_entails,
)
from repro.logic.atoms import Predicate
from repro.logic.parser import parse_program
from repro.logic.terms import Constant, FunctionSymbol, FunctionTerm
from repro.workloads.instances import generate_instance
from repro.workloads.ontology_suite import generate_suite


PERSON_CHAIN = """
Person(?x) -> exists ?y. parent(?x, ?y), Person(?y).
Person(adam).
"""


class TestTerminatingPrograms:
    def test_datalog_only_saturates_completely(self):
        program = parse_program(
            """
            Edge(?x, ?y) -> Reach(?x, ?y).
            Reach(?x, ?y), Edge(?y, ?z) -> Reach(?x, ?z).
            Edge(a, b). Edge(b, c). Edge(c, d).
            """
        )
        chase = SkolemChase(program.tgds)
        result = chase.run(program.instance)
        assert result.saturated
        reach = Predicate("Reach", 2)
        a, d = Constant("a"), Constant("d")
        assert reach(a, d) in result.facts

    def test_cim_example_completes_equipment(self):
        program = parse_program(
            """
            ACEquipment(?x) -> exists ?y. hasTerminal(?x, ?y), ACTerminal(?y).
            ACTerminal(?x) -> Terminal(?x).
            hasTerminal(?x, ?z), Terminal(?z) -> Equipment(?x).
            ACEquipment(sw1). ACEquipment(sw2).
            """
        )
        facts = skolem_chase_base_facts(program.instance, program.tgds)
        equipment = Predicate("Equipment", 1)
        assert equipment(Constant("sw1")) in facts
        assert equipment(Constant("sw2")) in facts

    def test_rounds_are_reported(self):
        program = parse_program("A(?x) -> B(?x). B(?x) -> C(?x). A(a).")
        result = SkolemChase(program.tgds).run(program.instance)
        assert result.rounds >= 2

    def test_transitive_closure_is_exact(self):
        program = parse_program(
            """
            Edge(?x, ?y) -> Reach(?x, ?y).
            Reach(?x, ?y), Edge(?y, ?z) -> Reach(?x, ?z).
            Edge(a, b). Edge(b, c). Edge(c, d).
            """
        )
        result = SkolemChase(program.tgds).run(program.instance)
        reach = Predicate("Reach", 2)
        a, b, c, d = (Constant(name) for name in "abcd")
        paths = {(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)}
        assert result.facts == set(program.instance) | {reach(*p) for p in paths}
        assert result.saturated
        # the longest path needs more than one round
        assert result.rounds > 1

    def test_chain_closure_is_exact(self):
        program = parse_program(
            """
            A(?x) -> B(?x). B(?x) -> C(?x). C(?x) -> D(?x).
            A(a). A(b).
            """
        )
        result = SkolemChase(program.tgds).run(program.instance)
        assert result.saturated
        assert len(result.facts) == 8
        assert {fact.predicate.name for fact in result.facts} == set("ABCD")


def _skolem_symbol(chase: SkolemChase, head_predicate: str) -> FunctionSymbol:
    """The Skolem symbol in the head of the chase rule for ``head_predicate``."""
    for rule in chase.rules:
        if rule.head.predicate.name == head_predicate:
            for term in rule.head.args:
                if isinstance(term, FunctionTerm):
                    return term.symbol
    raise AssertionError(f"no Skolem term in a head over {head_predicate}")


class TestHeadInstantiation:
    """Each body match instantiates the rule head: variables, constants and
    Skolem terms over the match."""

    def test_plain_variable_and_constant_head(self):
        program = parse_program("R(?x, ?y) -> S(?y, a). R(a, b). R(b, c).")
        result = SkolemChase(program.tgds).run(program.instance)
        s = Predicate("S", 2)
        a, b, c = (Constant(name) for name in "abc")
        assert result.facts == set(program.instance) | {s(b, a), s(c, a)}
        assert result.saturated

    def test_skolem_term_head(self):
        program = parse_program("P(?x) -> exists ?y. R(?x, ?y). P(a). P(b).")
        chase = SkolemChase(program.tgds)
        result = chase.run(program.instance)
        f = _skolem_symbol(chase, "R")
        r = Predicate("R", 2)
        a, b = Constant("a"), Constant("b")
        assert f.arity == 1 and f.is_skolem
        assert result.facts == set(program.instance) | {
            r(a, FunctionTerm(f, (a,))),
            r(b, FunctionTerm(f, (b,))),
        }
        assert result.base_facts() == set(program.instance)

    def test_nested_and_multi_argument_skolem_terms(self):
        program = parse_program(
            """
            R(?x, ?y) -> exists ?z. S(?x, ?z).
            S(?x, ?z) -> exists ?w. T(?z, ?w).
            R(a, b).
            """
        )
        chase = SkolemChase(program.tgds)
        result = chase.run(program.instance)
        f, g = _skolem_symbol(chase, "S"), _skolem_symbol(chase, "T")
        a, b = Constant("a"), Constant("b")
        # Skolem arguments are the universal variables in name order
        inner = FunctionTerm(f, (a, b))
        outer = FunctionTerm(g, (a, inner))
        assert result.facts == set(program.instance) | {
            Predicate("S", 2)(a, inner),
            Predicate("T", 2)(inner, outer),
        }
        assert max(fact.depth for fact in result.facts) == 2
        assert result.saturated

    def test_ground_skolem_term_in_the_head(self):
        # a TGD without universal variables Skolemizes to a nullary, ground
        # Skolem term, which the head carries as it is
        program = parse_program(
            """
            P(a) -> exists ?y. Q(?y), T(a, ?y).
            T(?x, ?y), R(?z) -> U(?z, ?y).
            P(a). R(b). R(c).
            """
        )
        chase = SkolemChase(program.tgds)
        result = chase.run(program.instance)
        f = _skolem_symbol(chase, "Q")
        assert f.arity == 0 and _skolem_symbol(chase, "T") is f
        ground = FunctionTerm(f, ())
        assert ground.is_ground
        a, b, c = (Constant(name) for name in "abc")
        u = Predicate("U", 2)
        assert result.facts == set(program.instance) | {
            Predicate("Q", 1)(ground),
            Predicate("T", 2)(a, ground),
            u(b, ground),
            u(c, ground),
        }
        assert result.saturated

    def test_rule_without_a_match_derives_nothing(self):
        program = parse_program("P(?x) -> exists ?y. R(?x, ?y). Q(a).")
        result = SkolemChase(program.tgds).run(program.instance)
        assert result.facts == set(program.instance)
        assert result.saturated
        assert result.rounds == 1


class TestNonTerminatingPrograms:
    def test_depth_bound_cuts_off_infinite_chase(self):
        program = parse_program(PERSON_CHAIN)
        chase = SkolemChase(program.tgds, max_term_depth=3)
        result = chase.run(program.instance)
        assert not result.saturated
        # the base-fact projection is still the correct certain answer set
        assert result.base_facts() == {
            Predicate("Person", 1)(Constant("adam"))
        }

    def test_deeper_bound_derives_more_non_base_facts(self):
        program = parse_program(PERSON_CHAIN)
        shallow = SkolemChase(program.tgds, max_term_depth=1).run(program.instance)
        deep = SkolemChase(program.tgds, max_term_depth=3).run(program.instance)
        assert len(deep.facts) > len(shallow.facts)

    def test_depth_bound_prunes_every_deeper_fact(self):
        program = parse_program(PERSON_CHAIN)
        result = SkolemChase(program.tgds, max_term_depth=2).run(program.instance)
        assert not result.saturated
        assert max(fact.depth for fact in result.facts) == 2

    def test_fact_cap_stops_runaway_chase(self):
        program = parse_program(PERSON_CHAIN)
        chase = SkolemChase(program.tgds, max_term_depth=50, max_facts=30)
        result = chase.run(program.instance)
        assert not result.saturated
        assert len(result.facts) <= 62  # cap plus at most one round of overshoot

    def test_fact_cap_fires_only_past_the_cap(self):
        program = parse_program(PERSON_CHAIN)
        chase = SkolemChase(program.tgds, max_term_depth=50, max_facts=25)
        result = chase.run(program.instance)
        assert not result.saturated
        assert len(result.facts) > 25


class TestSoundness:
    def test_under_approximates_exact_oracle(self, running):
        from repro.chase import certain_base_facts

        tgds, instance = running
        exact = certain_base_facts(instance, tgds)
        for depth in (0, 1, 2, 3):
            bounded = skolem_chase_base_facts(instance, tgds, max_term_depth=depth)
            assert bounded <= exact

    def test_entails_helper(self, running):
        tgds, instance = running
        h = Predicate("H", 1)
        assert skolem_chase_entails(instance, tgds, h(Constant("a")))


class TestAgreesWithExactOracle:
    """Base facts ⊆ the exact oracle's, and equal when the run saturated."""

    @staticmethod
    def _check(tgds, instance, depth):
        result = SkolemChase(tgds, max_term_depth=depth).run(instance)
        exact = GuardedChaseReasoner(tgds).entailed_base_facts(instance)
        assert result.base_facts() <= exact
        if result.saturated:
            assert result.base_facts() == exact
        return result

    def test_cim_example(self, cim):
        tgds, instance = cim
        self._check(tgds, instance, 4)

    def test_running_example_at_all_depths(self, running):
        tgds, instance = running
        for depth in (0, 1, 2, 4):
            self._check(tgds, instance, depth)

    def test_ontology_suite_at_a_truncating_depth(self):
        suite = generate_suite(count=2, seed=2022, min_axioms=10, max_axioms=14)
        for item in suite:
            instance = generate_instance(
                item.tgds, fact_count=50, constant_count=20, seed=int(item.identifier)
            )
            result = self._check(item.tgds, instance, 2)
            assert len(result.facts) > len(instance), item.identifier
