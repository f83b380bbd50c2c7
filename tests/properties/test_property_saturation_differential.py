"""Differential tests: the indexed saturation loop versus a naive reference.

The production engine retrieves resolution partners through guard-signature
buckets and does redundancy elimination through a set-trie subsumption index.
The reference loop below uses the same inference rules but *linear scans*
everywhere: partners are enumerated by walking the whole worked-off set and
subsumption by checking every retained clause.  On random GTGD workloads the
two must agree.

With redundancy elimination disabled the saturation closure is
order-independent, so the retained clause sets must be *identical*.  With
subsumption enabled the clause sets may legitimately differ by
subsumption-equivalent representatives (processing order decides which
representative survives), so the loops must agree *up to mutual
subsumption*.

The linear-scan ExbDR runs the plain reference kernel, and a second group of
properties pins the memoized kernel to it: under every setting, a
saturation with either kernel must retain exactly the same clauses and
output exactly the same Datalog rules.
"""

from __future__ import annotations

import heapq
import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.logic.normal_form import normalize
from repro.rewriting import RewritingSettings
from repro.rewriting.exbdr import ExbDR
from repro.rewriting.saturation import Saturation
from repro.rewriting.skdr import SkDR
from repro.rewriting.subsumption import is_syntactic_tautology, subsumes
from repro.workloads.random_gtgds import RandomGTGDConfig, generate_random_gtgds

from ..reference_exbdr import ReferenceExbDR

RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

RAW_SETTINGS = RewritingSettings(use_subsumption=False, use_lookahead=False)
SUBSUMING_SETTINGS = RewritingSettings(use_subsumption=True, use_lookahead=False)

CONFIG = RandomGTGDConfig(
    predicate_count=4,
    max_arity=2,
    tgd_count=4,
    max_body_atoms=2,
    max_head_atoms=2,
    existential_probability=0.5,
    constant_count=2,
)


#: default, no subsumption, exact subsumption, no lookahead.  The clause
#: cap bounds the rare inputs whose closure without subsumption runs to
#: about a thousand clauses; both kernels retain the same clauses round by
#: round, so they stop at the same round and still must agree exactly
KERNEL_SETTINGS = tuple(
    RewritingSettings(max_clauses=400, **overrides)
    for overrides in (
        {},
        {"use_subsumption": False},
        {"exact_subsumption": True},
        {"use_lookahead": False},
    )
)

#: wider heads than CONFIG, so non-full clauses grow several atoms and the
#: kernel meets many premise variants
KERNEL_CONFIG = RandomGTGDConfig(
    predicate_count=5,
    max_arity=2,
    tgd_count=5,
    max_body_atoms=2,
    max_head_atoms=3,
    existential_probability=0.6,
    constant_count=1,
)


class LinearScanExbDR(ReferenceExbDR):
    """Reference ExbDR with partner retrieval replaced by a full worked-off scan."""

    def infer(self, clause, worked_off):
        results = []
        partners = sorted(worked_off, key=str)
        if clause.is_non_full:
            for partner in partners:
                if partner.is_datalog_rule:
                    results.extend(self._combine(clause, partner))
        else:
            for partner in partners:
                if partner.is_non_full:
                    results.extend(self._combine(partner, clause))
        return results


class LinearScanSkDR(SkDR):
    """SkDR with partner retrieval replaced by a full worked-off scan."""

    def infer(self, clause, worked_off):
        results = []
        partners = sorted(worked_off, key=str)
        if self._is_generator(clause):
            for partner in partners:
                results.extend(self._combine(clause, partner))
        for partner in partners:
            if self._is_generator(partner):
                results.extend(self._combine(partner, clause))
        return results


def naive_saturate(inference, sigma, use_subsumption):
    """Algorithm 1 with linear-scan redundancy elimination (no indexes)."""
    inference.prepare(tuple(sigma))
    worked: list = []
    unprocessed: list = []
    queue: list = []
    tick = itertools.count()

    def retained():
        return itertools.chain(worked, unprocessed)

    def admit(clause):
        clause = normalize(clause)
        if is_syntactic_tautology(clause):
            return
        if clause in worked or clause in unprocessed:
            return
        if use_subsumption:
            if any(subsumes(candidate, clause) for candidate in retained()):
                return
            victims = [
                candidate
                for candidate in retained()
                if candidate != clause and subsumes(clause, candidate)
            ]
            for victim in victims:
                if victim in worked:
                    worked.remove(victim)
                    inference.unregister(victim)
                if victim in unprocessed:
                    unprocessed.remove(victim)
        unprocessed.append(clause)
        heapq.heappush(queue, (clause.size, next(tick), clause))

    for clause in inference.initial_clauses(tuple(sigma)):
        admit(clause)
    while queue:
        _, _, clause = heapq.heappop(queue)
        if clause not in unprocessed:
            continue
        unprocessed.remove(clause)
        worked.append(clause)
        inference.register(clause)
        for result in inference.normalize_results(
            inference.infer(clause, set(worked))
        ):
            admit(result)
    return frozenset(worked)


def indexed_saturate(inference_cls, sigma, settings_):
    saturation = Saturation(inference_cls(settings_))
    saturation.run(sigma)
    return frozenset(saturation._worked_off)


def _mutually_subsuming(left: frozenset, right: frozenset) -> bool:
    return all(
        any(subsumes(keeper, clause) for keeper in right) for clause in left
    ) and all(
        any(subsumes(keeper, clause) for keeper in left) for clause in right
    )


class TestIndexedLoopMatchesNaiveReference:
    @RELAXED
    @given(st.integers(min_value=0, max_value=10_000))
    def test_exbdr_closure_identical_without_subsumption(self, seed):
        sigma = generate_random_gtgds(CONFIG, seed=seed)
        naive = naive_saturate(LinearScanExbDR(RAW_SETTINGS), sigma, False)
        indexed = indexed_saturate(ExbDR, sigma, RAW_SETTINGS)
        assert naive == indexed

    @RELAXED
    @given(st.integers(min_value=0, max_value=10_000))
    def test_skdr_closure_identical_without_subsumption(self, seed):
        sigma = generate_random_gtgds(CONFIG, seed=seed)
        naive = naive_saturate(LinearScanSkDR(RAW_SETTINGS), sigma, False)
        indexed = indexed_saturate(SkDR, sigma, RAW_SETTINGS)
        assert naive == indexed

    @RELAXED
    @given(st.integers(min_value=0, max_value=10_000))
    def test_exbdr_retained_equivalent_with_subsumption(self, seed):
        sigma = generate_random_gtgds(CONFIG, seed=seed)
        naive = naive_saturate(
            LinearScanExbDR(SUBSUMING_SETTINGS), sigma, True
        )
        indexed = indexed_saturate(ExbDR, sigma, SUBSUMING_SETTINGS)
        assert _mutually_subsuming(naive, indexed)

    @RELAXED
    @given(st.integers(min_value=0, max_value=10_000))
    def test_skdr_retained_equivalent_with_subsumption(self, seed):
        sigma = generate_random_gtgds(CONFIG, seed=seed)
        naive = naive_saturate(
            LinearScanSkDR(SUBSUMING_SETTINGS), sigma, True
        )
        indexed = indexed_saturate(SkDR, sigma, SUBSUMING_SETTINGS)
        assert _mutually_subsuming(naive, indexed)


class TestMemoizedKernelMatchesReference:
    @RELAXED
    @given(st.integers(min_value=0, max_value=10_000))
    def test_retained_clauses_and_rules_identical_under_every_setting(self, seed):
        sigma = generate_random_gtgds(KERNEL_CONFIG, seed=seed)
        for settings_ in KERNEL_SETTINGS:
            memoized = Saturation(ExbDR(settings_))
            reference = Saturation(ReferenceExbDR(settings_))
            memoized_rules = memoized.run(sigma).datalog_rules
            reference_rules = reference.run(sigma).datalog_rules
            assert memoized._worked_off == reference._worked_off, settings_
            assert memoized_rules == reference_rules, settings_
