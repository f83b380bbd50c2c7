"""Unit tests for the feature-vector subsumption index."""

from repro.indexing.feature_index import SubsumptionIndex
from repro.logic.atoms import Predicate
from repro.logic.parser import parse_tgd, parse_tgds
from repro.logic.rules import Rule
from repro.logic.terms import Variable

x, y = Variable("x"), Variable("y")
A = Predicate("A", 1)
B = Predicate("B", 1)
C = Predicate("C", 1)


class TestSubsumptionIndex:
    def test_add_contains_remove(self):
        index = SubsumptionIndex()
        tgd = parse_tgd("A(?x) -> B(?x).")
        index.add(tgd)
        assert tgd in index
        assert len(index) == 1
        index.remove(tgd)
        assert tgd not in index
        assert len(index) == 0

    def test_subsuming_candidates_require_body_subset_and_head_superset(self):
        index = SubsumptionIndex()
        general = parse_tgd("A(?x) -> B(?x).")
        other_head = parse_tgd("A(?x) -> C(?x).")
        bigger_body = parse_tgd("A(?x), C(?x) -> B(?x).")
        for tgd in (general, other_head, bigger_body):
            index.add(tgd)
        query = parse_tgd("A(?x), D(?x) -> B(?x).")
        candidates = set(index.subsuming_candidates(query))
        assert general in candidates
        assert other_head not in candidates  # head is not a superset
        assert bigger_body not in candidates  # body is not a subset

    def test_subsumed_candidates_is_the_dual_query(self):
        index = SubsumptionIndex()
        specific = parse_tgd("A(?x), D(?x) -> B(?x).")
        unrelated = parse_tgd("C(?x) -> B(?x).")
        index.add(specific)
        index.add(unrelated)
        query = parse_tgd("A(?x) -> B(?x).")
        candidates = set(index.subsumed_candidates(query))
        assert specific in candidates
        assert unrelated not in candidates

    def test_works_for_rules(self):
        index = SubsumptionIndex()
        rule = Rule((A(x),), B(x))
        index.add(rule)
        query = Rule((A(x), C(x)), B(x))
        assert rule in set(index.subsuming_candidates(query))

    def test_multi_head_tgds_use_head_sets(self):
        index = SubsumptionIndex()
        both = parse_tgd("A(?x) -> exists ?y. B(?x), R(?x, ?y).")
        index.add(both)
        query = parse_tgd("A(?x) -> exists ?y. R(?x, ?y).")
        assert both in set(index.subsuming_candidates(query))

    def test_items_iteration(self):
        index = SubsumptionIndex()
        tgds = parse_tgds("A(?x) -> B(?x). C(?x) -> B(?x).")
        for tgd in tgds:
            index.add(tgd)
        assert set(index.items()) == set(tgds)

    def test_same_name_different_arity_is_another_relation(self):
        # bodies are keyed on (name, arity): A/1 is not a subset of {A/2}
        index = SubsumptionIndex()
        unary = parse_tgd("A(?x) -> B(?x).")
        index.add(unary)
        query = parse_tgd("A(?x, ?y) -> B(?x).")
        assert unary not in set(index.subsuming_candidates(query))
        assert unary not in set(index.subsumed_candidates(query))

    def test_removed_items_are_no_longer_candidates(self):
        index = SubsumptionIndex()
        general = parse_tgd("A(?x) -> B(?x).")
        specific = parse_tgd("A(?x), C(?x) -> B(?x).")
        index.add(general)
        index.add(specific)
        index.remove(general)
        assert general not in set(index.subsuming_candidates(specific))
        assert set(index.subsumed_candidates(general)) == {specific}

    def test_queried_clauses_do_not_become_members(self):
        index = SubsumptionIndex()
        index.add(parse_tgd("A(?x) -> B(?x)."))
        query = parse_tgd("A(?x), C(?x) -> B(?x).")
        list(index.subsuming_candidates(query))
        list(index.subsumed_candidates(query))
        assert query not in index
        assert len(index) == 1

    def test_removing_an_absent_item_is_a_no_op(self):
        index = SubsumptionIndex()
        stored = parse_tgd("A(?x) -> B(?x).")
        index.add(stored)
        index.remove(parse_tgd("C(?x) -> B(?x)."))
        assert stored in index
        assert len(index) == 1
