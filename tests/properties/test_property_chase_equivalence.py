"""Differential properties: the chase engines against each other.

The depth-bounded Skolem chase (:meth:`SkolemChase.run`) is sound, so on
every guarded program and instance its base facts lie within those of the
exact oracle (:class:`GuardedChaseReasoner`), and a saturated run, which
neither the depth bound nor the ``max_facts`` cutoff stopped, finds all of
them.  The ``max_facts`` cutoff fires exactly when the closure outgrows the
cap.  Likewise the dirty-type worklist guarded engine
(:class:`GuardedChaseReasoner`) must agree with the retained recursive
engine (:class:`tests.reference_guarded.ReferenceGuardedReasoner`), a
whole-tree re-walk, on random guarded programs and on the ontology suite.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chase.guarded_engine import GuardedChaseReasoner
from repro.chase.skolem_chase import SkolemChase
from repro.workloads.instances import generate_instance
from repro.workloads.ontology_suite import generate_suite

from ..reference_guarded import ReferenceGuardedReasoner
from .strategies import base_instances, guarded_tgd_sets

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestSkolemChaseEquivalence:
    @RELAXED
    @given(
        guarded_tgd_sets(max_size=5),
        base_instances(max_size=6),
        st.integers(min_value=0, max_value=3),
    )
    def test_base_facts_within_the_exact_oracle(self, tgds, facts, depth):
        result = SkolemChase(tgds, max_term_depth=depth).run(facts)
        exact = GuardedChaseReasoner(tgds).entailed_base_facts(facts)
        assert result.base_facts() <= exact
        if result.saturated:
            assert result.base_facts() == exact

    @RELAXED
    @given(
        guarded_tgd_sets(max_size=4),
        base_instances(max_size=6),
        st.integers(min_value=1, max_value=12),
    )
    def test_max_facts_cutoff(self, tgds, facts, max_facts):
        # a truncated run's exact fact set is enumeration-order dependent,
        # but *whether* the cutoff fires is a function of the closure size
        # alone: it fires iff adding some new fact pushes the count past the
        # cap, i.e. iff |closure| > max(max_facts, |seed|).  A capped run
        # that does not fire equals the uncapped run.
        seed_size = len(set(facts))
        full = SkolemChase(tgds, max_term_depth=2).run(facts)
        capped = SkolemChase(tgds, max_term_depth=2, max_facts=max_facts).run(facts)
        if len(full.facts) > max(max_facts, seed_size):
            assert not capped.saturated
            assert len(capped.facts) > max_facts
        else:
            assert capped.facts == full.facts
            assert capped.saturated == full.saturated


class TestGuardedEngineEquivalence:
    @RELAXED
    @given(guarded_tgd_sets(max_size=5), base_instances(max_size=5))
    def test_worklist_equals_recursive_reference(self, tgds, facts):
        worklist = GuardedChaseReasoner(tgds).entailed_base_facts(facts)
        recursive = ReferenceGuardedReasoner(tgds).entailed_base_facts(facts)
        assert worklist == recursive

    def test_agreement_on_the_ontology_suite(self):
        suite = generate_suite(count=3, seed=7, min_axioms=8, max_axioms=16)
        for item in suite:
            instance = generate_instance(
                item.tgds, fact_count=25, constant_count=8, seed=int(item.identifier)
            )
            worklist = GuardedChaseReasoner(item.tgds, max_types=200_000)
            reference = ReferenceGuardedReasoner(item.tgds, max_types=200_000)
            assert worklist.entailed_base_facts(instance) == (
                reference.entailed_base_facts(instance)
            ), item.identifier
