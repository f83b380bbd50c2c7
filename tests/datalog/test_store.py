"""Tests for the ID-encoded columnar store (repro.datalog.store).

The hypothesis properties pin the store's observable behaviour to an
*object-encoded reference model* — plain sets of interned atoms, the
representation the store used before ID encoding — across arbitrary
add/retract interleavings, both at the store level (``add``/``remove``/base
bookkeeping) and through the engine's ``extend``/``retract``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.engine import DatalogEngine
from repro.datalog.program import DatalogProgram
from repro.datalog.store import FactStore, TermTable, row_key
from repro.logic.atoms import Predicate
from repro.logic.rules import datalog_tgd_to_rule
from repro.logic.terms import Constant, Variable

from tests.properties.strategies import ground_atoms, guarded_tgd_sets
from tests.reference_datalog import naive_reference_fixpoint

R = Predicate("R", 2)
S = Predicate("S", 1)
a, b, c = Constant("a"), Constant("b"), Constant("c")
x = Variable("x")

RELAXED = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestTermTable:
    def test_encode_is_dense_and_stable(self):
        table = TermTable()
        assert table.encode(a) == 0
        assert table.encode(b) == 1
        assert table.encode(a) == 0  # re-encoding returns the same ID
        assert len(table) == 2

    def test_lookup_never_issues_ids(self):
        table = TermTable()
        assert table.lookup(a) is None
        assert len(table) == 0
        table.encode(a)
        assert table.lookup(a) == 0

    def test_decode_round_trips(self):
        table = TermTable()
        ids = [table.encode(t) for t in (a, b, c)]
        assert table.decode_column(ids) == [a, b, c]
        assert table.decode_args(tuple(ids)) == (a, b, c)

    def test_copy_is_independent(self):
        table = TermTable()
        table.encode(a)
        clone = table.copy()
        clone.encode(b)
        assert len(table) == 1 and len(clone) == 2


class TestRowBoundary:
    def test_encode_fact_rejects_non_ground(self):
        import pytest

        store = FactStore()
        with pytest.raises(ValueError):
            store.encode_fact(R(a, x))

    def test_find_fact_is_lookup_only(self):
        store = FactStore([R(a, b)])
        terms_before = len(store.terms)
        assert store.find_fact(R(a, c)) is None  # c unknown: no ID issued
        assert len(store.terms) == terms_before
        predicate, row = store.find_fact(R(a, b))
        assert predicate is R and store.contains_row(predicate, row)

    def test_ids_survive_removal(self):
        """Removed rows must still decode: term IDs are never reclaimed."""
        store = FactStore([R(a, b)])
        predicate, row = store.find_fact(R(a, b))
        store.remove(R(a, b))
        assert store.decode_row(predicate, row) == R(a, b)
        # re-adding the same fact reuses the same term IDs (append-only map)
        assert store.encode_fact(R(a, b)) == (predicate, row)

    def test_row_key_shapes(self):
        assert row_key((7, 8, 9), (1,)) == 8  # single column: bare int
        assert row_key((7, 8, 9), (0, 2)) == (7, 9)

    def test_stats_block_keys(self):
        store = FactStore([R(a, b), S(c)])
        store.key_index(R, (0,))
        stats = store.stats()
        for key in (
            "term_table_size",
            "rows",
            "relations",
            "key_indexes",
            "index_entries",
            "index_memory_bytes",
            "encode_calls",
            "decode_calls",
        ):
            assert key in stats, key
        assert stats["term_table_size"] == 3
        assert stats["rows"] == 2
        assert stats["key_indexes"] == 1
        assert stats["encode_calls"] >= 3


class _ReferenceStore:
    """The object-encoded model: interned-atom sets, no IDs anywhere."""

    def __init__(self):
        self.facts = set()
        self.base = set()

    def add(self, fact, base=False):
        added = fact not in self.facts
        self.facts.add(fact)
        if base:
            self.base.add(fact)
        return added

    def remove(self, fact):
        if fact not in self.facts:
            return False
        self.facts.discard(fact)
        self.base.discard(fact)
        return True

    def unmark_base(self, fact):
        had = fact in self.base
        self.base.discard(fact)
        return had


def _assert_store_equal(store: FactStore, reference: _ReferenceStore):
    assert store.facts() == frozenset(reference.facts)
    assert store.base_facts() == set(reference.base)
    assert len(store) == len(reference.facts)
    assert store.base_count == len(reference.base)
    by_predicate = {}
    for fact in reference.facts:
        by_predicate[fact.predicate] = by_predicate.get(fact.predicate, 0) + 1
    # both the old object store and the int store keep an emptied relation's
    # entry around at count 0; only the live counts must agree
    live = {pred: n for pred, n in store.counts_by_predicate().items() if n}
    assert live == by_predicate


class TestStoreEquivalenceProperties:
    @RELAXED
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "add_base", "remove", "unmark"]),
                ground_atoms(),
            ),
            max_size=30,
        )
    )
    def test_any_interleaving_matches_object_reference(self, operations):
        """Any add/retract interleaving leaves the int-encoded store equal
        to the object-encoded reference, including index-served lookups."""
        store = FactStore()
        reference = _ReferenceStore()
        for op, fact in operations:
            if op == "add":
                assert store.add(fact) == reference.add(fact)
            elif op == "add_base":
                store.add_all([fact], base=True)
                reference.add(fact, base=True)
            elif op == "remove":
                assert store.remove(fact) == reference.remove(fact)
            else:
                if fact in reference.facts:
                    assert store.unmark_base(fact) == reference.unmark_base(fact)
            _assert_store_equal(store, reference)
        # index-backed candidate retrieval agrees with a naive scan for
        # every bound probe over the final state
        for fact in set(reference.facts):
            probe = fact.predicate(fact.args[0], *[
                Variable(f"w{i}") for i in range(1, fact.predicate.arity)
            ])
            expected = {
                other
                for other in reference.facts
                if other.predicate is fact.predicate
                and other.args[0] == fact.args[0]
            }
            assert set(store.candidates(probe)) == expected

    @RELAXED
    @given(
        guarded_tgd_sets(max_size=4),
        st.lists(
            st.tuples(
                st.booleans(),  # True = extend, False = retract
                st.lists(ground_atoms(), min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_extend_retract_interleaving_matches_rematerialization(self, tgds, batches):
        """After any extend/retract interleaving, the int store holds exactly
        the naive fixpoint of the surviving base facts (the object-encoded
        executable spec)."""
        rules = [datalog_tgd_to_rule(tgd) for tgd in tgds if tgd.is_datalog_rule]
        if not rules:
            return
        engine = DatalogEngine(DatalogProgram(rules))
        store = engine.materialize(()).store
        asserted = set()
        for is_extend, batch in batches:
            if is_extend:
                engine.extend(store, batch)
                asserted.update(batch)
            else:
                engine.retract(store, batch)
                asserted.difference_update(batch)
            assert store.facts() == naive_reference_fixpoint(
                DatalogProgram(rules), asserted
            )
            assert store.base_facts() == asserted
