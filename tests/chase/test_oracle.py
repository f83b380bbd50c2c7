"""Unit tests for the oracle convenience wrappers."""

from repro.chase.oracle import (
    certain_base_facts,
    entails,
    oracle_agrees,
)
from repro.chase.skolem_chase import skolem_chase_base_facts
from repro.logic.atoms import Predicate
from repro.logic.terms import Constant


class TestOracleWrappers:
    def test_certain_base_facts(self, running):
        tgds, instance = running
        facts = certain_base_facts(instance, tgds)
        assert Predicate("H", 1)(Constant("a")) in facts

    def test_entails(self, cim):
        tgds, instance = cim
        assert entails(instance, tgds, Predicate("Equipment", 1)(Constant("sw2")))
        assert not entails(instance, tgds, Predicate("Equipment", 1)(Constant("trm1")))

    def test_bounded_is_subset_of_exact(self, running):
        tgds, instance = running
        assert skolem_chase_base_facts(instance, tgds, 2) <= certain_base_facts(
            instance, tgds
        )

    def test_oracle_agrees(self, running):
        tgds, instance = running
        exact = certain_base_facts(instance, tgds)
        assert oracle_agrees(instance, tgds, exact)
        assert not oracle_agrees(instance, tgds, set())

    def test_oracle_agrees_ignores_non_base_facts(self, running):
        from repro.logic.terms import Null

        tgds, instance = running
        exact = set(certain_base_facts(instance, tgds))
        exact_with_noise = exact | {Predicate("E", 1)(Null(9))}
        assert oracle_agrees(instance, tgds, exact_with_noise)
