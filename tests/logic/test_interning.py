"""Clearing and eviction of the intern tables, for each of the nine interned kinds.

Long-lived processes clear the tables (the benchmark does so before every
compile pass) or reach ``INTERN_TABLE_LIMIT``.  Either way a value stops
being the canonical representative, and everything must fall back to
structural equality: an old value equals and hashes like its successor,
finds it in a dict, and unpickles to it.
"""

import pickle

import pytest

from repro.logic import interning
from repro.logic.atoms import Atom, Predicate
from repro.logic.interning import clear_intern_tables, intern_stats
from repro.logic.rules import Rule
from repro.logic.terms import Constant, FunctionSymbol, FunctionTerm, Null, Variable
from repro.logic.tgd import TGD

# names no other test builds, so values made here never meet theirs
PREFIX = "interning_test_"


def _unary(name, index):
    return Atom(Predicate(PREFIX + name, 1), (Variable(f"{PREFIX}x{index}"),))


#: kind (as keyed in ``intern_stats()``) -> builder of its ``index``-th distinct value
BUILDERS = {
    "constant": lambda index: Constant(f"{PREFIX}c{index}"),
    "variable": lambda index: Variable(f"{PREFIX}v{index}"),
    "null": lambda index: Null(-1 - index),
    "function_symbol": lambda index: FunctionSymbol(f"{PREFIX}f{index}", 1),
    "function_term": lambda index: FunctionTerm(
        FunctionSymbol(PREFIX + "f", 1), (Constant(f"{PREFIX}c{index}"),)
    ),
    "predicate": lambda index: Predicate(f"{PREFIX}P{index}", 2),
    "atom": lambda index: Atom(
        Predicate(PREFIX + "P", 1), (Constant(f"{PREFIX}c{index}"),)
    ),
    "tgd": lambda index: TGD((_unary("A", index),), (_unary("B", index),)),
    "rule": lambda index: Rule((_unary("A", index),), _unary("B", index)),
}


@pytest.fixture
def fresh_tables():
    """Run the test on empty intern tables, then put the old tables back.

    Later tests build values that equal values built before this one and
    rely on getting the identical objects, so the snapshot's canonical
    objects are restored, not the ones this test made.
    """
    saved = [dict(table) for table in interning._tables]
    clear_intern_tables()
    yield
    for table, entries in zip(interning._tables, saved):
        table.clear()
        table.update(entries)


def test_every_interned_kind_has_a_counter():
    assert set(intern_stats()) == set(BUILDERS) | {"overall"}


@pytest.mark.usefixtures("fresh_tables")
@pytest.mark.parametrize("kind", BUILDERS)
class TestClearing:
    def test_a_rebuilt_value_is_new_but_equal(self, kind):
        old = BUILDERS[kind](0)
        assert BUILDERS[kind](0) is old
        clear_intern_tables()
        new = BUILDERS[kind](0)
        assert new is not old
        assert new == old and old == new
        assert hash(new) == hash(old)
        assert new != BUILDERS[kind](1)

    def test_a_dict_keyed_by_the_old_value_finds_the_new_one(self, kind):
        old = BUILDERS[kind](0)
        by_value = {old: "old"}
        clear_intern_tables()
        assert by_value[BUILDERS[kind](0)] == "old"

    def test_unpickling_the_old_value_returns_the_new_canonical_one(self, kind):
        old = BUILDERS[kind](0)
        clear_intern_tables()
        new = BUILDERS[kind](0)
        assert pickle.loads(pickle.dumps(old)) is new

    def test_a_rebuild_after_clearing_counts_as_a_miss(self, kind):
        BUILDERS[kind](0)
        clear_intern_tables()
        misses = intern_stats()[kind]["misses"]
        BUILDERS[kind](0)
        assert intern_stats()[kind]["misses"] == misses + 1


@pytest.mark.usefixtures("fresh_tables")
@pytest.mark.parametrize("kind", BUILDERS)
class TestEviction:
    LIMIT = 4

    def test_the_oldest_half_is_dropped_at_the_limit(self, kind, monkeypatch):
        monkeypatch.setattr(interning, "INTERN_TABLE_LIMIT", self.LIMIT)
        values = [BUILDERS[kind](index) for index in range(self.LIMIT + 1)]
        table = type(values[0])._interned
        # the last insert found the table full and dropped its first half
        survivors = values[self.LIMIT // 2:]
        assert list(table.values()) == survivors
        for index in range(self.LIMIT // 2, self.LIMIT + 1):
            assert BUILDERS[kind](index) is values[index]

    def test_evicted_values_equal_their_successors(self, kind, monkeypatch):
        monkeypatch.setattr(interning, "INTERN_TABLE_LIMIT", self.LIMIT)
        values = [BUILDERS[kind](index) for index in range(self.LIMIT + 1)]
        for index in range(self.LIMIT // 2):
            successor = BUILDERS[kind](index)
            assert successor is not values[index]
            assert successor == values[index]
            assert hash(successor) == hash(values[index])
            assert successor in {values[index]}
