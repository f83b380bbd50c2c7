"""Tests for the FullDR algorithm (Appendix E, Example E.3)."""

import pytest

from repro.chase import certain_base_facts
from repro.datalog import materialize
from repro.logic.parser import parse_facts
from repro.rewriting import RewritingSettings, rewrite
from repro.rewriting.fulldr import FullDR
from repro.rewriting.saturation import Saturation
from repro.workloads.families import fulldr_example_e3, running_example


class TestCorrectness:
    def test_running_example(self):
        tgds, instance = running_example()
        result = rewrite(tgds, algorithm="fulldr")
        facts = {
            fact
            for fact in materialize(result.program(), instance).facts()
            if fact.is_base_fact
        }
        assert facts == certain_base_facts(instance, tgds)

    def test_only_full_tgds_are_derived(self):
        from repro.logic.normal_form import normalize_tgd

        tgds, _ = running_example()
        fulldr = FullDR()
        saturation = Saturation(fulldr)
        saturation.run(tgds)
        # the worked-off set stores clauses in canonical-variable form, so
        # compare against the normalized initial clauses
        initial = {normalize_tgd(tgd) for tgd in fulldr.initial_clauses(tgds)}
        derived = [
            clause for clause in saturation._worked_off if clause not in initial
        ]
        assert derived, "FullDR should derive new TGDs on the running example"
        assert all(clause.is_full for clause in derived)

    def test_cim_example(self, cim):
        tgds, instance = cim
        result = rewrite(tgds, algorithm="fulldr")
        facts = {
            fact
            for fact in materialize(result.program(), instance).facts()
            if fact.is_base_fact
        }
        assert facts == certain_base_facts(instance, tgds)


class TestExampleE3:
    """Example E.3 is the paper's illustration of why FullDR is impractical:
    the COMPOSE variant enumerates thousands of bounded substitutions per
    premise pair.  Saturating the example to completion takes minutes even at
    this small size, so these tests run FullDR under a time budget and check
    the properties that are meaningful for a partial run (derivation blow-up
    and soundness); full completeness of FullDR is checked on the cheaper
    inputs above and in the differential tests."""

    def test_compose_enumerates_many_substitutions(self):
        """Within the same time budget FullDR performs far more derivations
        than HypDR needs to finish the example completely."""
        tgds = fulldr_example_e3()
        budget = RewritingSettings(timeout_seconds=10.0)
        fulldr_result = rewrite(tgds, algorithm="fulldr", settings=budget)
        hypdr_result = rewrite(tgds, algorithm="hypdr", settings=budget)
        assert hypdr_result.completed
        assert fulldr_result.statistics.derived > hypdr_result.statistics.derived
        # HypDR finishes the whole example in the time FullDR needs to grind
        # through a fraction of its substitution space
        assert hypdr_result.statistics.elapsed_seconds < fulldr_result.statistics.elapsed_seconds

    def test_fulldr_is_sound_on_e3(self):
        """Every fact derivable through the (possibly partial) FullDR output is
        certain; if the saturation finishes, the output is also complete."""
        tgds = fulldr_example_e3()
        instance = parse_facts("R(a, b). U(a). U(b).")
        expected = certain_base_facts(instance, tgds)
        result = rewrite(
            tgds, algorithm="fulldr", settings=RewritingSettings(timeout_seconds=15.0)
        )
        facts = {
            fact
            for fact in materialize(result.program(), instance).facts()
            if fact.is_base_fact
        }
        assert facts <= expected
        if result.completed:
            assert facts == expected


class TestCostProfile:
    def test_fulldr_performs_more_inferences_than_exbdr(self):
        """The paper drops FullDR because it is not competitive; on the running
        example it already performs noticeably more derivations."""
        tgds, _ = running_example()
        fulldr_result = rewrite(tgds, algorithm="fulldr")
        exbdr_result = rewrite(tgds, algorithm="exbdr")
        assert (
            fulldr_result.statistics.derived
            > exbdr_result.statistics.derived
        )

    def test_substitution_cap_is_respected(self):
        fulldr = FullDR()
        fulldr.max_substitutions_per_pair = 10
        saturation = Saturation(fulldr)
        tgds, _ = running_example()
        result = saturation.run(tgds)
        assert result.datalog_rules is not None

    def test_timeout_marks_run_incomplete(self):
        tgds = fulldr_example_e3()
        settings = RewritingSettings(timeout_seconds=0.0)
        result = rewrite(tgds, algorithm="fulldr", settings=settings)
        assert not result.completed
        assert result.statistics.timed_out


class TestSubstitutionCap:
    """Dropping substitutions past ``max_substitutions_per_pair`` drops
    inferences, so the rewriting must not be reported complete."""

    def _rewrite(self, max_substitutions_per_pair=None):
        inference = FullDR()
        if max_substitutions_per_pair is not None:
            inference.max_substitutions_per_pair = max_substitutions_per_pair
        tgds, instance = running_example()
        result = Saturation(inference).run(tgds)
        facts = {
            fact
            for fact in materialize(result.program(), instance).facts()
            if fact.is_base_fact
        }
        return result, facts == certain_base_facts(instance, tgds)

    def test_a_cut_marks_the_rewriting_incomplete(self):
        result, answers_match = self._rewrite(max_substitutions_per_pair=1)
        assert not answers_match
        assert not result.completed
        assert not result.statistics.timed_out

    def test_under_the_default_cap_the_rewriting_is_complete(self):
        result, answers_match = self._rewrite()
        assert answers_match
        assert result.completed
        assert result.output_size == 39
