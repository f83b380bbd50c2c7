"""Tests for the ID-encoded columnar store (repro.datalog.store).

The store is tested through its row layer (``add_row``/``remove_row``, the
base marks, ``relation_rows``/``key_index``) and its boundary (the
constructor, ``encode_fact``/``find_fact``, ``in``, ``facts()``/
``base_facts()``).  The hypothesis properties pin its observable behaviour
to an *object-encoded reference model* — plain sets of interned atoms, the
representation the store used before ID encoding — across arbitrary
add/retract interleavings, both at the store level and through the
engine's ``extend``/``retract``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.engine import DatalogEngine
from repro.datalog.program import DatalogProgram
from repro.datalog.store import FactStore, TermTable, row_key
from repro.logic.atoms import Predicate
from repro.logic.parser import parse_program
from repro.logic.rules import datalog_tgd_to_rule
from repro.logic.terms import Constant, Variable

from tests.properties.strategies import ground_atoms, guarded_tgd_sets
from tests.reference_datalog import naive_reference_fixpoint

R = Predicate("R", 2)
S = Predicate("S", 1)
a, b, c = Constant("a"), Constant("b"), Constant("c")
x = Variable("x")


def add(store, fact):
    """Add a fact through the row layer, unmarked (as the engine derives it)."""
    return store.add_row(*store.encode_fact(fact))


def row_of(store, fact):
    """The ``(predicate, row)`` of a stored fact."""
    found = store.find_fact(fact)
    assert found is not None, fact
    return found


def decoded(store, predicate, rows):
    """The facts a collection of rows of one relation encodes."""
    if rows is None:
        return None
    return {predicate(*store.terms.decode_args(row)) for row in rows}

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
        store.remove_row(predicate, row)
        assert store.terms.decode_args(row) == (a, b)
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


class TestStorage:
    def test_add_and_len(self):
        store = FactStore([R(a, b), S(a)])
        assert len(store) == 2
        assert R(a, b) in store
        assert R(b, a) not in store

    def test_duplicate_adds_are_ignored(self):
        store = FactStore()
        assert add(store, R(a, b))
        assert not add(store, R(a, b))
        assert len(store) == 1

    def test_constructor_deduplicates_facts(self):
        store = FactStore([R(a, b), R(a, b), R(b, c)])
        assert len(store) == 2
        assert store.base_count == 2

    def test_non_ground_facts_rejected(self):
        with pytest.raises(ValueError):
            FactStore([R(a, x)])

    def test_relation_rows_and_counts(self):
        store = FactStore([R(a, b), R(b, c), S(a)])
        assert decoded(store, R, store.relation_rows(R)) == {R(a, b), R(b, c)}
        assert store.count(R) == 2
        assert store.counts_by_predicate()[S] == 1

    def test_copy_is_independent(self):
        store = FactStore([R(a, b)])
        clone = store.copy()
        add(clone, S(a))
        assert len(store) == 1
        assert S(a) not in store


class TestKeyIndexLookup:
    """``key_index``: the int-keyed buckets every plan step probes."""

    def test_unbound_probe_reads_the_whole_relation(self):
        store = FactStore([R(a, b), R(b, c)])
        assert decoded(store, R, store.relation_rows(R)) == {R(a, b), R(b, c)}

    def test_constant_argument_uses_position_index(self):
        store = FactStore([R(a, b), R(b, c), R(a, c)])
        bucket = store.key_index(R, (0,)).get(store.terms.lookup(a))
        assert decoded(store, R, bucket) == {R(a, b), R(a, c)}

    def test_second_position_index(self):
        store = FactStore([R(a, b), R(b, c), R(a, c)])
        bucket = store.key_index(R, (1,)).get(store.terms.lookup(c))
        assert decoded(store, R, bucket) == {R(b, c), R(a, c)}

    def test_two_column_key_narrows_to_one_row(self):
        # each single column holds two rows; the pair of them holds one
        store = FactStore([R(a, b), R(a, c), R(b, c)])
        lookup = store.terms.lookup
        bucket = store.key_index(R, (0, 1)).get((lookup(a), lookup(c)))
        assert decoded(store, R, bucket) == {R(a, c)}

    def test_unknown_term_has_no_id_and_no_bucket(self):
        store = FactStore([R(a, b)])
        assert store.terms.lookup(c) is None
        assert set(store.key_index(R, (0,))) == {store.terms.lookup(a)}

    def test_unknown_predicate_has_no_rows(self):
        store = FactStore([R(a, b)])
        assert not store.relation_rows(S)
        assert store.count(S) == 0
        assert store.key_index(S, (0,)) == {}


class TestBaseDerivedBookkeeping:
    def test_constructor_facts_are_base(self):
        store = FactStore([R(a, b), S(a)])
        assert store.is_base_row(*row_of(store, R(a, b)))
        assert store.base_count == 2
        assert len(store) == store.base_count
        assert store.base_facts() == {R(a, b), S(a)}

    def test_add_row_defaults_to_derived(self):
        store = FactStore()
        add(store, R(a, b))
        assert not store.is_base_row(*row_of(store, R(a, b)))
        assert store.base_count == 0
        assert store.base_facts() == frozenset()

    def test_asserting_a_derived_fact_promotes_it(self):
        program = parse_program("R(?x, ?y) -> S(?x).")
        engine = DatalogEngine(DatalogProgram(program.tgds))
        store = engine.materialize([R(a, b)]).store
        assert S(a) in store and S(a) not in store.base_facts()
        # asserting an already-derived fact adds nothing but promotes it
        assert engine.extend(store, [S(a)]).added_facts == 0
        assert store.base_facts() == {R(a, b), S(a)}
        assert len(store) == store.base_count

    def test_mark_base_reports_promotion(self):
        store = FactStore()
        add(store, R(a, b))
        assert store.mark_base_row(*row_of(store, R(a, b)))
        assert not store.mark_base_row(*row_of(store, R(a, b)))

    def test_mark_base_rejects_absent_fact(self):
        store = FactStore()
        with pytest.raises(KeyError):
            store.mark_base_row(*store.encode_fact(R(a, b)))

    def test_unmark_base_demotes_without_removing(self):
        store = FactStore([R(a, b)])
        pair = row_of(store, R(a, b))
        assert store.unmark_base_row(*pair)
        assert R(a, b) in store
        assert not store.is_base_row(*pair)
        assert not store.unmark_base_row(*pair)

    def test_copy_preserves_base_marks(self):
        store = FactStore([R(a, b)])
        add(store, R(b, c))
        clone = store.copy()
        assert clone.base_facts() == {R(a, b)}
        assert R(b, c) in clone
        clone.unmark_base_row(*row_of(clone, R(a, b)))
        assert store.base_facts() == {R(a, b)}


class TestRemoval:
    def test_remove_updates_len_and_membership(self):
        store = FactStore([R(a, b), R(b, c)])
        assert store.remove_row(*row_of(store, R(a, b)))
        assert len(store) == 1
        assert R(a, b) not in store
        assert decoded(store, R, store.relation_rows(R)) == {R(b, c)}

    def test_remove_absent_fact_is_a_noop(self):
        store = FactStore([R(a, b)])
        assert not store.remove_row(*store.encode_fact(R(b, a)))
        assert not store.remove_row(*store.encode_fact(S(a)))
        assert len(store) == 1

    def test_remove_trims_position_index(self):
        store = FactStore([R(a, b), R(a, c)])
        by_first = store.key_index(R, (0,))
        by_second = store.key_index(R, (1,))
        store.remove_row(*row_of(store, R(a, b)))
        assert decoded(store, R, by_first.get(store.terms.lookup(a))) == {R(a, c)}
        assert store.terms.lookup(b) not in by_second

    def test_remove_trims_key_index_buckets(self):
        store = FactStore([R(a, b), R(a, c)])
        # force a key-index bucket on position 0, then shrink it
        # (single-column keys are the bare term ID, see row_key)
        a_id = store.terms.lookup(a)

        def bucket():
            return decoded(store, R, store.key_index(R, (0,)).get(a_id))

        assert bucket() == {R(a, b), R(a, c)}
        store.remove_row(*row_of(store, R(a, b)))
        assert bucket() == {R(a, c)}
        store.remove_row(*row_of(store, R(a, c)))
        assert bucket() is None

    def test_remove_discards_base_mark(self):
        store = FactStore([R(a, b)])
        store.remove_row(*row_of(store, R(a, b)))
        assert store.base_count == 0
        add(store, R(a, b))
        assert store.base_facts() == frozenset()


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
                assert add(store, fact) == reference.add(fact)
            elif op == "add_base":
                # an assertion, as extend makes it: add, then mark base
                pair = store.encode_fact(fact)
                store.add_row(*pair)
                store.mark_base_row(*pair)
                reference.add(fact, base=True)
            elif op == "remove":
                found = store.find_fact(fact)
                removed = found is not None and store.remove_row(*found)
                assert removed == reference.remove(fact)
            else:
                if fact in reference.facts:
                    pair = row_of(store, fact)
                    assert store.unmark_base_row(*pair) == reference.unmark_base(fact)
            _assert_store_equal(store, reference)
        # the first-position key index agrees with a naive scan for every
        # term bound there in the final state
        for fact in set(reference.facts):
            index = store.key_index(fact.predicate, (0,))
            bucket = index.get(store.terms.lookup(fact.args[0]))
            expected = {
                other
                for other in reference.facts
                if other.predicate is fact.predicate
                and other.args[0] == fact.args[0]
            }
            assert decoded(store, fact.predicate, bucket) == expected

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
