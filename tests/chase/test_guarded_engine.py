"""Unit tests for the type-closure decision procedure (the exact oracle)."""

import pytest

from repro.chase.guarded_engine import GuardedChaseReasoner
from repro.logic.atoms import Predicate
from repro.logic.parser import parse_program, parse_tgds
from repro.logic.terms import Constant


class TestBasicEntailment:
    def test_running_example_entails_h(self, running):
        tgds, instance = running
        reasoner = GuardedChaseReasoner(tgds)
        h = Predicate("H", 1)
        assert reasoner.entails(instance, h(Constant("a")))

    def test_running_example_full_answer_set(self, running):
        tgds, instance = running
        reasoner = GuardedChaseReasoner(tgds)
        names = {fact.predicate.name for fact in reasoner.entailed_base_facts(instance)}
        assert names == {"A", "E", "G", "H"}

    def test_cim_example_completes_both_switches(self, cim):
        tgds, instance = cim
        reasoner = GuardedChaseReasoner(tgds)
        equipment = Predicate("Equipment", 1)
        facts = reasoner.entailed_base_facts(instance)
        assert equipment(Constant("sw1")) in facts
        assert equipment(Constant("sw2")) in facts

    def test_non_entailed_fact(self, running):
        tgds, instance = running
        reasoner = GuardedChaseReasoner(tgds)
        h = Predicate("H", 1)
        assert not reasoner.entails(instance, h(Constant("b")))

    def test_entails_rejects_non_base_facts(self, running):
        tgds, instance = running
        reasoner = GuardedChaseReasoner(tgds)
        from repro.logic.terms import Null

        with pytest.raises(ValueError):
            reasoner.entails(instance, Predicate("E", 1)(Null(1)))


class TestInfiniteChaseCases:
    def test_terminates_on_infinite_chase_program(self):
        """The classic Person/parent cycle has an infinite chase but a tiny closure."""
        program = parse_program(
            """
            Person(?x) -> exists ?y. parent(?x, ?y), Person(?y).
            parent(?x, ?y), Person(?y) -> Ancestor(?x).
            Person(adam).
            """
        )
        reasoner = GuardedChaseReasoner(program.tgds)
        facts = reasoner.entailed_base_facts(program.instance)
        assert Predicate("Ancestor", 1)(Constant("adam")) in facts

    def test_mutual_recursion_between_existentials(self):
        program = parse_program(
            """
            A(?x) -> exists ?y. r(?x, ?y), B(?y).
            B(?x) -> exists ?y. s(?x, ?y), A(?y).
            r(?x, ?y), B(?y) -> Good(?x).
            s(?x, ?y), A(?y) -> Fine(?x).
            A(a).
            """
        )
        reasoner = GuardedChaseReasoner(program.tgds)
        facts = reasoner.entailed_base_facts(program.instance)
        assert Predicate("Good", 1)(Constant("a")) in facts
        # Fine(a) is not entailed: a is an A, not a B
        assert Predicate("Fine", 1)(Constant("a")) not in facts

    def test_constants_in_tgds_propagate_out_of_subtrees(self):
        """Facts over constants of Σ escape the child vertex that derived them."""
        program = parse_program(
            """
            A(?x) -> exists ?y. r(?x, ?y).
            r(?x, ?y) -> Marked(c).
            A(a).
            """
        )
        reasoner = GuardedChaseReasoner(program.tgds)
        facts = reasoner.entailed_base_facts(program.instance)
        assert Predicate("Marked", 1)(Constant("c")) in facts


class TestValidation:
    def test_unguarded_input_rejected(self):
        tgds = parse_tgds("A(?x), B(?y) -> C(?x, ?y).")
        with pytest.raises(ValueError):
            GuardedChaseReasoner(tgds)

    def test_type_limit_guard(self):
        tgds = parse_tgds("A(?x) -> exists ?y. r(?x, ?y), A(?y).")
        reasoner = GuardedChaseReasoner(tgds, max_types=0)
        program = parse_program("A(a).")
        with pytest.raises(RuntimeError):
            reasoner.saturate(program.instance)

    def test_agreement_with_skolem_chase_on_terminating_inputs(self):
        from repro.chase.skolem_chase import skolem_chase_base_facts

        program = parse_program(
            """
            A(?x) -> exists ?y. r(?x, ?y), B(?y).
            B(?x) -> C(?x).
            r(?x, ?y), C(?y) -> D(?x).
            A(a). A(b). r(a, b).
            """
        )
        reasoner = GuardedChaseReasoner(program.tgds)
        exact = reasoner.entailed_base_facts(program.instance)
        bounded = skolem_chase_base_facts(program.instance, program.tgds, max_term_depth=4)
        assert exact == bounded


class TestDeltaPivotedTriggerRefires:
    """The stored-trigger re-fires must match the full-closure reference."""

    def test_refires_grow_child_types_incrementally(self):
        # B(?x) facts about the parent arrive over several worklist rounds,
        # so the stored trigger for the existential must re-fire — each time
        # growing the inheritable set by the new delta only
        program = parse_program(
            """
            A(?x) -> exists ?y. r(?x, ?y), B(?y).
            r(?x, ?y), B(?y) -> C(?x).
            C(?x) -> B(?x).
            B(?x) -> D(?x).
            A(a). r(a, b). B(b).
            """
        )
        from tests.reference_guarded import ReferenceGuardedReasoner

        worklist = GuardedChaseReasoner(program.tgds).entailed_base_facts(
            program.instance
        )
        reference = ReferenceGuardedReasoner(program.tgds).entailed_base_facts(
            program.instance
        )
        assert worklist == reference
        D = Predicate("D", 1)
        assert D(Constant("a")) in worklist

    def test_ontology_suite_equivalence_with_reference(self):
        from tests.reference_guarded import ReferenceGuardedReasoner
        from repro.workloads.instances import generate_instance
        from repro.workloads.ontology_suite import generate_suite

        suite = generate_suite(count=3, seed=13, min_axioms=8, max_axioms=16)
        for item in suite:
            instance = generate_instance(
                item.tgds,
                fact_count=30,
                constant_count=10,
                seed=int(item.identifier),
            )
            worklist = GuardedChaseReasoner(
                item.tgds, max_types=500_000
            ).entailed_base_facts(instance)
            reference = ReferenceGuardedReasoner(
                item.tgds, max_types=500_000
            ).entailed_base_facts(instance)
            assert worklist == reference, item.identifier
