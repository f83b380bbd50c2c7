"""The memoized ExbDR kernel against the plain one it replaced.

``ReferenceExbDR`` runs Definition 5.5 once per premise pair with no tables
and builds every unifier solution into a clause.  On the seeded 12-ontology
corpus the memoized kernel must end each saturation with the same retained
clauses and Datalog rules, while deriving at most half as many clauses and
running the slot solver at most a tenth as often.  Both saturations run in
one process, so the string-hash order that drives saturation order is the
same for both; work is counted, not timed, so the bounds hold on every
machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import pytest

from repro.logic.normal_form import normalize_tgd
from repro.logic.parser import parse_tgd, parse_tgds
from repro.logic.rules import rule_to_datalog_tgd
from repro.rewriting import RewritingSettings
from repro.rewriting.exbdr import ExbDR
from repro.rewriting.saturation import Saturation
from repro.unification.solver import match_solver_stats
from repro.workloads.ontology_suite import generate_suite
from tests.reference_exbdr import ReferenceExbDR


@dataclass
class CorpusRun:
    worked_off: List[frozenset] = field(default_factory=list)
    datalog_rules: List[tuple] = field(default_factory=list)
    completed: List[bool] = field(default_factory=list)
    derived: int = 0
    solves: int = 0


def _saturate_corpus(inference_cls, suite) -> CorpusRun:
    run = CorpusRun()
    for item in suite:
        before = match_solver_stats()["solves"]
        saturation = Saturation(inference_cls())
        result = saturation.run(item.tgds)
        run.solves += match_solver_stats()["solves"] - before
        run.derived += result.statistics.derived
        run.worked_off.append(frozenset(saturation._worked_off))
        run.datalog_rules.append(result.datalog_rules)
        run.completed.append(result.completed)
    return run


@pytest.fixture(scope="module")
def corpus_runs():
    """The benchmark's offline compile corpus through both kernels."""
    suite = generate_suite(count=12, seed=2022, min_axioms=12, max_axioms=48)
    return _saturate_corpus(ExbDR, suite), _saturate_corpus(ReferenceExbDR, suite)


class TestCorpusAgainstReference:
    def test_every_saturation_completes(self, corpus_runs):
        memoized, reference = corpus_runs
        assert all(memoized.completed)
        assert all(reference.completed)

    def test_retained_clauses_and_rules_are_the_reference_ones(self, corpus_runs):
        memoized, reference = corpus_runs
        for index, (ours, theirs) in enumerate(
            zip(memoized.worked_off, reference.worked_off)
        ):
            assert ours == theirs, f"ontology {index}"
        assert memoized.datalog_rules == reference.datalog_rules

    def test_derives_at_most_half_as_many_clauses(self, corpus_runs):
        memoized, reference = corpus_runs
        assert memoized.derived * 2 <= reference.derived

    def test_runs_the_slot_solver_at_most_a_tenth_as_often(self, corpus_runs):
        memoized, reference = corpus_runs
        assert memoized.solves * 10 <= reference.solves


def _combine_both(non_full_text: str, full_text: str):
    """Both kernels' results for one canonical premise pair.

    The lookahead is off: it would drop every result whose new head
    relation occurs in no body of the pair.
    """
    non_full = normalize_tgd(parse_tgd(non_full_text))
    full = normalize_tgd(parse_tgd(full_text))
    settings = RewritingSettings(use_lookahead=False)
    results = [
        inference._combine(non_full, full)
        for inference in (ExbDR(settings), ReferenceExbDR(settings))
    ]
    return non_full, results


class TestPremiseVariants:
    def test_a_variant_of_the_non_full_premise_is_not_built(self):
        non_full, (memoized, reference) = _combine_both(
            "A(?x) -> exists ?y. R(?x, ?y), S(?x, ?y).", "R(?u, ?v) -> S(?u, ?v)."
        )
        assert [normalize_tgd(result) for result in reference] == [non_full]
        assert memoized == []

    def test_rest_atoms_keep_the_result(self):
        _, (memoized, reference) = _combine_both(
            "A(?x) -> exists ?y. R(?x, ?y), S(?x, ?y).",
            "R(?u, ?v), B(?u) -> S(?u, ?v).",
        )
        assert len(reference) == 1
        assert memoized == reference

    def test_a_unifier_merging_universal_variables_keeps_the_result(self):
        _, (memoized, reference) = _combine_both(
            "A(?x1, ?x2) -> exists ?y. R(?x1, ?x2, ?y), S(?x1, ?y).",
            "R(?u, ?u, ?v) -> S(?u, ?v).",
        )
        assert len(reference) == 1
        assert memoized == reference

    def test_a_new_head_atom_keeps_the_result(self):
        _, (memoized, reference) = _combine_both(
            "A(?x) -> exists ?y. R(?x, ?y), S(?x, ?y).", "R(?u, ?v) -> T(?u, ?v)."
        )
        assert len(reference) == 1
        assert memoized == reference

    def test_a_premise_repeating_an_atom_keeps_the_deduplicated_result(self):
        non_full, (memoized, reference) = _combine_both(
            "A(?x) -> exists ?y. R(?x, ?y), R(?x, ?y), S(?x, ?y).",
            "R(?u, ?v) -> S(?u, ?v).",
        )
        assert reference and normalize_tgd(reference[0]) != non_full
        assert memoized == reference


class TestCombinationCap:
    """Cutting counterpart lists at the cap drops inferences, so the
    rewriting must not be reported complete."""

    SIGMA = """
    B(?x1, ?x2, ?x3, ?x4, ?x5) -> exists ?y. R(?x1, ?y), R(?x2, ?y), R(?x3, ?y), R(?x4, ?y), R(?x5, ?y).
    R(?u, ?v) -> S(?u).
    """
    LOST = "B(?x1, ?x2, ?x3, ?x4, ?x5) -> S(?x5)."

    def _rewrite(self, max_combinations=None):
        inference = ExbDR()
        if max_combinations is not None:
            inference.max_combinations = max_combinations
        result = Saturation(inference).run(parse_tgds(self.SIGMA))
        rules = {normalize_tgd(rule_to_datalog_tgd(rule)) for rule in result.datalog_rules}
        return result, normalize_tgd(parse_tgd(self.LOST)) in rules

    def test_a_cut_marks_the_rewriting_incomplete(self):
        result, has_lost_rule = self._rewrite(max_combinations=1)
        assert not has_lost_rule
        assert not result.completed
        assert not result.statistics.timed_out

    def test_under_the_default_cap_the_rewriting_is_complete(self):
        result, has_lost_rule = self._rewrite()
        assert has_lost_rule
        assert result.completed
