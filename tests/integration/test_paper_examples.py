"""Integration tests that replay the paper's worked examples end to end."""

import pytest

from repro import KnowledgeBase, parse_program
from repro.chase import certain_base_facts
from repro.datalog import materialize
from repro.logic.atoms import Predicate
from repro.logic.normal_form import normalize_rule, normalize_tgd
from repro.logic.rules import datalog_tgd_to_rule
from repro.logic.terms import Constant
from repro.rewriting import available_algorithms, rewrite
from repro.workloads.families import (
    cim_example,
    cim_shortcut,
    running_example,
    running_example_shortcuts,
)

ALGORITHMS = ("exbdr", "skdr", "hypdr")


class TestExample11And12:
    """The CIM data-integration scenario from the introduction."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_both_switches_are_classified_as_equipment(self, algorithm):
        tgds, instance = cim_example()
        kb = KnowledgeBase.compile(tgds, algorithm=algorithm)
        equipment = Predicate("Equipment", 1)
        facts = kb.session(instance).certain_base_facts()
        assert equipment(Constant("sw1")) in facts
        assert equipment(Constant("sw2")) in facts

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_shortcut_rule_7_is_part_of_the_rewriting(self, algorithm):
        """Example 1.2: ACEquipment(x) → Equipment(x) belongs to rew(Σ)."""
        tgds, _ = cim_example()
        result = rewrite(tgds, algorithm=algorithm)
        target = normalize_rule(datalog_tgd_to_rule(cim_shortcut()))
        assert any(normalize_rule(rule) == target for rule in result.datalog_rules)

    def test_rewriting_of_example_1_2_answers_like_the_paper(self):
        """The program of rules (2), (3), (7) is a rewriting of GTGDs (1)–(4)."""
        paper_rewriting = parse_program(
            """
            ACTerminal(?x) -> Terminal(?x).
            hasTerminal(?x, ?z), Terminal(?z) -> Equipment(?x).
            ACEquipment(?x) -> Equipment(?x).
            """
        )
        tgds, instance = cim_example()
        expected = certain_base_facts(instance, tgds)
        facts = {
            fact
            for fact in materialize(paper_rewriting.tgds, instance).facts()
            if fact.is_base_fact
        }
        assert facts == expected


class TestExample43And46:
    """The running example: GTGDs (8)–(13), shortcuts (14)–(16)."""

    def test_oracle_derives_h_of_a(self):
        tgds, instance = running_example()
        assert Predicate("H", 1)(Constant("a")) in certain_base_facts(instance, tgds)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_shortcuts_14_to_16_are_derived(self, algorithm):
        tgds, _ = running_example()
        result = rewrite(tgds, algorithm=algorithm)
        derived = {normalize_rule(rule) for rule in result.datalog_rules}
        for shortcut in running_example_shortcuts():
            assert normalize_rule(datalog_tgd_to_rule(shortcut)) in derived

    def test_example_4_6_program_is_a_rewriting(self):
        """Shortcuts (14)–(16) plus the input Datalog rules form a rewriting."""
        tgds, instance = running_example()
        datalog_part = [tgd for tgd in tgds if tgd.is_datalog_rule]
        program = list(running_example_shortcuts()) + datalog_part
        expected = certain_base_facts(instance, tgds)
        facts = {
            fact
            for fact in materialize(program, instance).facts()
            if fact.is_base_fact
        }
        assert facts == expected

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_rewriting_answers_match_on_larger_instances(self, algorithm):
        tgds, _ = running_example()
        instance = parse_program(
            "A(a, b). A(b, c). A(c, c). B(d, e). D(d, e). E(f)."
        ).instance
        kb = KnowledgeBase.compile(tgds, algorithm=algorithm)
        assert kb.session(instance).certain_base_facts() == certain_base_facts(instance, tgds)


class TestExample56And511Artifacts:
    """Intermediate artefacts highlighted in Examples 5.6 and 5.11."""

    def test_exbdr_derives_tgd_17(self):
        """ExbDR combines (8) and (9) into (17)."""
        from repro.rewriting.exbdr import ExbDR
        from repro.rewriting.saturation import Saturation
        from repro.logic.parser import parse_tgd

        tgds, _ = running_example()
        saturation = Saturation(ExbDR())
        saturation.run(tgds)
        tgd17 = parse_tgd(
            "A(?x1, ?x2) -> exists ?y. B(?x1, ?y), C(?x1, ?y), D(?x1, ?y)."
        )
        normalized = {normalize_tgd(clause) for clause in saturation._worked_off}
        assert normalize_tgd(tgd17) in normalized

    def test_skdr_derives_rule_27(self):
        """SkDR combines the Skolemization of (8) with (9) into rule (27)."""
        from repro.rewriting.skdr import SkDR
        from repro.rewriting.saturation import Saturation

        tgds, _ = running_example()
        saturation = Saturation(SkDR())
        saturation.run(tgds)
        d_headed_skolem_rules = [
            rule
            for rule in saturation._worked_off
            if rule.head.predicate.name == "D" and not rule.head.is_function_free
        ]
        assert d_headed_skolem_rules, "rule (27) should be derived"

    def test_hypdr_avoids_dead_end_rule_29(self):
        """HypDR never derives rules whose body contains Skolem terms (like (29))."""
        from repro.rewriting.hypdr import HypDR
        from repro.rewriting.saturation import Saturation

        tgds, _ = running_example()
        saturation = Saturation(HypDR())
        saturation.run(tgds)
        assert all(rule.body_is_skolem_free for rule in saturation._worked_off)


class TestAllAlgorithmsAgreeOnAllExamples:
    @pytest.mark.parametrize("algorithm", sorted(available_algorithms()))
    def test_every_algorithm_is_a_rewriting_on_the_running_example(self, algorithm):
        tgds, instance = running_example()
        expected = certain_base_facts(instance, tgds)
        kb = KnowledgeBase.compile(tgds, algorithm=algorithm)
        assert kb.session(instance).certain_base_facts() == expected
