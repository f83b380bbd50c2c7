"""Unit tests for the indexed fact store."""

import pytest

from repro.datalog.store import FactStore
from repro.logic.atoms import Predicate
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable

R = Predicate("R", 2)
S = Predicate("S", 1)
a, b, c = Constant("a"), Constant("b"), Constant("c")
x, y = Variable("x"), Variable("y")


class TestStorage:
    def test_add_and_len(self):
        store = FactStore([R(a, b), S(a)])
        assert len(store) == 2
        assert R(a, b) in store
        assert R(b, a) not in store

    def test_duplicate_adds_are_ignored(self):
        store = FactStore()
        assert store.add(R(a, b))
        assert not store.add(R(a, b))
        assert len(store) == 1

    def test_add_all_returns_new_count(self):
        store = FactStore([R(a, b)])
        assert store.add_all([R(a, b), R(b, c)]) == 1

    def test_non_ground_facts_rejected(self):
        with pytest.raises(ValueError):
            FactStore([R(a, x)])

    def test_relation_and_counts(self):
        store = FactStore([R(a, b), R(b, c), S(a)])
        assert store.relation(R) == {R(a, b), R(b, c)}
        assert store.count(R) == 2
        assert store.counts_by_predicate()[S] == 1

    def test_copy_is_independent(self):
        store = FactStore([R(a, b)])
        clone = store.copy()
        clone.add(S(a))
        assert len(store) == 1


class TestCandidateRetrieval:
    def test_unbound_atom_returns_whole_relation(self):
        store = FactStore([R(a, b), R(b, c)])
        assert set(store.candidates(R(x, y))) == {R(a, b), R(b, c)}

    def test_constant_argument_uses_position_index(self):
        store = FactStore([R(a, b), R(b, c), R(a, c)])
        assert set(store.candidates(R(a, y))) == {R(a, b), R(a, c)}

    def test_bound_variable_uses_position_index(self):
        store = FactStore([R(a, b), R(b, c)])
        substitution = Substitution({x: b})
        assert set(store.candidates(R(x, y), substitution)) == {R(b, c)}

    def test_most_selective_position_wins(self):
        store = FactStore([R(a, b), R(a, c), R(b, c)])
        # position 0 = a has two candidates, position 1 = c has two; both
        # bound should intersect down via the smaller index and matching
        candidates = set(store.candidates(R(a, c)))
        assert R(a, c) in candidates
        assert len(candidates) <= 2

    def test_unknown_term_yields_no_candidates(self):
        store = FactStore([R(a, b)])
        assert list(store.candidates(R(c, y))) == []

    def test_unknown_predicate_yields_no_candidates(self):
        store = FactStore([R(a, b)])
        assert list(store.candidates(S(x))) == []


class TestBaseDerivedBookkeeping:
    def test_constructor_facts_are_base(self):
        store = FactStore([R(a, b), S(a)])
        assert store.is_base(R(a, b))
        assert store.base_count == 2
        assert store.derived_count == 0
        assert store.base_facts() == {R(a, b), S(a)}

    def test_add_defaults_to_derived(self):
        store = FactStore()
        store.add(R(a, b))
        assert not store.is_base(R(a, b))
        assert store.base_count == 0
        assert store.derived_count == 1

    def test_add_all_base_promotes_existing_derived(self):
        store = FactStore()
        store.add(R(a, b))
        # asserting an already-derived fact adds nothing but promotes it
        assert store.add_all([R(a, b)], base=True) == 0
        assert store.is_base(R(a, b))
        assert store.derived_count == 0

    def test_mark_base_reports_promotion(self):
        store = FactStore()
        store.add(R(a, b))
        assert store.mark_base(R(a, b))
        assert not store.mark_base(R(a, b))

    def test_mark_base_rejects_absent_fact(self):
        store = FactStore()
        with pytest.raises(KeyError):
            store.mark_base(R(a, b))

    def test_unmark_base_demotes_without_removing(self):
        store = FactStore([R(a, b)])
        assert store.unmark_base(R(a, b))
        assert R(a, b) in store
        assert not store.is_base(R(a, b))
        assert not store.unmark_base(R(a, b))

    def test_copy_preserves_base_marks(self):
        store = FactStore([R(a, b)])
        store.add(R(b, c))
        clone = store.copy()
        assert clone.is_base(R(a, b))
        assert not clone.is_base(R(b, c))
        clone.unmark_base(R(a, b))
        assert store.is_base(R(a, b))


class TestRemoval:
    def test_remove_updates_len_and_membership(self):
        store = FactStore([R(a, b), R(b, c)])
        assert store.remove(R(a, b))
        assert len(store) == 1
        assert R(a, b) not in store
        assert store.relation(R) == {R(b, c)}

    def test_remove_absent_fact_is_a_noop(self):
        store = FactStore([R(a, b)])
        assert not store.remove(R(b, a))
        assert not store.remove(S(a))
        assert len(store) == 1

    def test_remove_trims_position_index(self):
        store = FactStore([R(a, b), R(a, c)])
        store.remove(R(a, b))
        assert set(store.candidates(R(a, y))) == {R(a, c)}
        assert list(store.candidates(R(x, b))) == []

    def test_remove_trims_key_index_buckets(self):
        store = FactStore([R(a, b), R(a, c)])
        # force a key-index bucket on position 0, then shrink it
        # (single-column keys are the bare term ID, see row_key)
        a_id = store.terms.lookup(a)

        def bucket():
            rows = store.key_index(R, (0,)).get(a_id)
            if rows is None:
                return None
            return {store.decode_row(R, row) for row in rows}

        assert bucket() == {R(a, b), R(a, c)}
        store.remove(R(a, b))
        assert bucket() == {R(a, c)}
        store.remove(R(a, c))
        assert bucket() is None

    def test_remove_discards_base_mark(self):
        store = FactStore([R(a, b)])
        store.remove(R(a, b))
        assert store.base_count == 0
        store.add(R(a, b))
        assert not store.is_base(R(a, b))
