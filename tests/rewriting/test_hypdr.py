"""Tests for the HypDR algorithm (Definition 5.16, Example 5.17, Prop. 5.20)."""

from repro.chase import certain_base_facts
from repro.datalog import materialize
from repro.logic.normal_form import normalize_rule
from repro.logic.parser import parse_facts, parse_tgds
from repro.logic.rules import datalog_tgd_to_rule
from repro.rewriting import RewritingSettings, rewrite
from repro.rewriting.hypdr import HypDR
from repro.rewriting.saturation import Saturation
from repro.rewriting.skdr import SkDR
from repro.workloads.families import (
    hypdr_advantage_family,
    running_example,
    running_example_shortcuts,
)


def _contains_rule(result, tgd) -> bool:
    target = normalize_rule(datalog_tgd_to_rule(tgd))
    return any(normalize_rule(rule) == target for rule in result.datalog_rules)


class TestRunningExample:
    def test_shortcut_rules_are_derived(self):
        tgds, _ = running_example()
        result = rewrite(tgds, algorithm="hypdr")
        for shortcut in running_example_shortcuts():
            assert _contains_rule(result, shortcut), f"missing {shortcut}"

    def test_correct_on_running_instance(self):
        tgds, instance = running_example()
        result = rewrite(tgds, algorithm="hypdr")
        facts = {
            fact
            for fact in materialize(result.program(), instance).facts()
            if fact.is_base_fact
        }
        assert facts == certain_base_facts(instance, tgds)

    def test_no_skolem_bodied_rules_are_retained(self):
        """Example 5.17: HypDR never keeps rules with Skolem terms in the body
        that were derived by the inference (initial Skolemized rules have
        Skolem-free bodies anyway)."""
        tgds, _ = running_example()
        hypdr = HypDR()
        saturation = Saturation(hypdr)
        saturation.run(tgds)
        for rule in saturation._worked_off:
            assert rule.body_is_skolem_free

    def test_fewer_or_equal_clauses_than_skdr_on_running_example(self):
        tgds, _ = running_example()
        skdr_saturation = Saturation(SkDR())
        skdr_saturation.run(tgds)
        hypdr_saturation = Saturation(HypDR())
        hypdr_saturation.run(tgds)
        assert len(hypdr_saturation._worked_off) <= len(skdr_saturation._worked_off)


class TestProposition520:
    def test_skdr_derives_exponentially_more_rules_than_hypdr(self):
        n = 4
        tgds = hypdr_advantage_family(n)
        settings = RewritingSettings(use_subsumption=False, use_lookahead=False)

        skdr_saturation = Saturation(SkDR(settings))
        skdr_saturation.run(tgds)
        hypdr_saturation = Saturation(HypDR(settings))
        hypdr_saturation.run(tgds)

        skdr_e_rules = [
            rule
            for rule in skdr_saturation._worked_off
            if rule.head.predicate.name == "E"
        ]
        hypdr_e_rules = [
            rule
            for rule in hypdr_saturation._worked_off
            if rule.head.predicate.name == "E"
        ]
        # SkDR derives a rule for every nonempty subset of {1..n}; HypDR only
        # needs the collecting rule itself plus the full resolution
        assert len(skdr_e_rules) >= 2 ** n - 1
        assert len(hypdr_e_rules) < len(skdr_e_rules)

    def test_both_algorithms_agree_on_the_answers(self):
        tgds = hypdr_advantage_family(3)
        instance = parse_facts("A(a). C1(a). C2(a). C3(a).")
        expected = certain_base_facts(instance, tgds)
        for algorithm in ("skdr", "hypdr"):
            result = rewrite(tgds, algorithm=algorithm)
            facts = {
                fact
                for fact in materialize(result.program(), instance).facts()
                if fact.is_base_fact
            }
            assert facts == expected, algorithm

    def test_e_is_only_derivable_with_all_ci_facts(self):
        tgds = hypdr_advantage_family(3)
        instance = parse_facts("A(a). C1(a). C2(a).")  # C3 missing
        result = rewrite(tgds, algorithm="hypdr")
        facts = materialize(result.program(), instance).facts()
        assert not any(fact.predicate.name == "E" for fact in facts)


class TestSearchBehaviour:
    def test_multi_premise_resolution_in_one_step(self):
        """HypDR resolves both body atoms of the collector in a single conclusion."""
        tgds = parse_tgds(
            """
            A(?x) -> exists ?y. B(?x, ?y), C(?x, ?y).
            B(?x1, ?x2), C(?x1, ?x2) -> D(?x1).
            """
        )
        result = rewrite(tgds, algorithm="hypdr")
        assert any(
            rule.head.predicate.name == "D"
            and len(rule.body) == 1
            and rule.body[0].predicate.name == "A"
            for rule in result.datalog_rules
        )

    def test_branch_budget_limits_explosion(self):
        hypdr = HypDR()
        hypdr.max_branches = 1
        saturation = Saturation(hypdr)
        tgds, instance = running_example()
        result = saturation.run(tgds)
        # with an absurdly small budget the run still terminates and returns
        # a (possibly incomplete) set of Datalog rules
        assert result.datalog_rules is not None

    def test_matches_oracle_on_random_inputs(self):
        from repro.workloads.random_gtgds import (
            RandomGTGDConfig,
            generate_random_gtgds,
            generate_random_instance,
        )

        for seed in range(40, 48):
            config = RandomGTGDConfig(seed=seed, tgd_count=6, predicate_count=5)
            tgds = generate_random_gtgds(config)
            instance = generate_random_instance(tgds, seed=seed)
            expected = certain_base_facts(instance, tgds)
            result = rewrite(tgds, algorithm="hypdr")
            facts = {
                fact
                for fact in materialize(result.program(), instance).facts()
                if fact.is_base_fact
            }
            assert facts == expected, f"seed {seed}"


class TestBranchCap:
    """Skipping branches at ``max_branches`` drops inferences, so the
    rewriting must not be reported complete."""

    LOST = "A(?x1, ?x2) -> E(?x1)."

    def _rewrite(self, max_branches=None):
        inference = HypDR()
        if max_branches is not None:
            inference.max_branches = max_branches
        tgds, instance = running_example()
        result = Saturation(inference).run(tgds)
        facts = {
            fact
            for fact in materialize(result.program(), instance).facts()
            if fact.is_base_fact
        }
        return result, facts == certain_base_facts(instance, tgds)

    def test_a_cut_marks_the_rewriting_incomplete(self):
        result, answers_match = self._rewrite(max_branches=1)
        assert not _contains_rule(result, parse_tgds(self.LOST)[0])
        assert not answers_match
        assert not result.completed
        assert not result.statistics.timed_out

    def test_under_the_default_cap_the_rewriting_is_complete(self):
        result, answers_match = self._rewrite()
        assert _contains_rule(result, parse_tgds(self.LOST)[0])
        assert answers_match
        assert result.completed
        assert result.output_size == 7
