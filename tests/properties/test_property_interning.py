"""Property-based tests for the hash-consing invariants of the logic substrate.

The saturation hot path relies on two guarantees of the interned
constructors (see ``repro.logic.interning``):

* *structural equality is identity* — building the same term/atom/clause
  twice, through any construction path, yields the very same object;
* *operations preserve interning* — substitution application and
  normalization return interned objects, so their results also enjoy
  equality-is-identity.
"""

import copy
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.atoms import Atom, Predicate
from repro.logic.interning import intern_stats, reset_intern_counters
from repro.logic.normal_form import normalize_tgd
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, FunctionSymbol, FunctionTerm, Variable
from repro.logic.tgd import TGD
from repro.rewriting import rewrite
from repro.workloads.ontology_suite import generate_suite

from .strategies import atoms, constants, guarded_tgds, variables


def _rebuild_term(term):
    """Reconstruct a term from scratch (fresh constructor calls throughout)."""
    if isinstance(term, Variable):
        return Variable(str(term.name))
    if isinstance(term, Constant):
        return Constant(str(term.name))
    if isinstance(term, FunctionTerm):
        symbol = FunctionSymbol(
            str(term.symbol.name), term.symbol.arity, term.symbol.is_skolem
        )
        return FunctionTerm(symbol, tuple(_rebuild_term(arg) for arg in term.args))
    raise AssertionError(f"unexpected term {term!r}")


def _rebuild_atom(atom: Atom) -> Atom:
    predicate = Predicate(str(atom.predicate.name), atom.predicate.arity)
    return Atom(predicate, tuple(_rebuild_term(arg) for arg in atom.args))


class TestEqualityIsIdentity:
    @given(atoms())
    def test_rebuilding_an_atom_returns_the_same_object(self, atom):
        rebuilt = _rebuild_atom(atom)
        assert rebuilt == atom
        assert rebuilt is atom

    @given(variables(), constants())
    def test_rebuilding_terms_returns_the_same_objects(self, var, const):
        assert Variable(str(var.name)) is var
        assert Constant(str(const.name)) is const

    @given(guarded_tgds())
    def test_rebuilding_a_tgd_returns_the_same_object(self, tgd):
        rebuilt = TGD(
            tuple(_rebuild_atom(atom) for atom in tgd.body),
            tuple(_rebuild_atom(atom) for atom in tgd.head),
        )
        assert rebuilt == tgd
        assert rebuilt is tgd

    @given(atoms(), atoms())
    def test_distinct_structures_stay_distinct(self, left, right):
        # identity must track structural equality in both directions
        assert (left == right) == (left is right)


class TestSerializationRoundTrips:
    """Pickle and deepcopy must survive interning (and re-intern on load)."""

    @given(atoms())
    def test_pickle_round_trip_returns_the_interned_atom(self, atom):
        assert pickle.loads(pickle.dumps(atom)) is atom

    @given(guarded_tgds())
    def test_pickle_round_trip_returns_the_interned_tgd(self, tgd):
        assert pickle.loads(pickle.dumps(tgd)) is tgd

    @given(atoms())
    def test_deepcopy_returns_the_interned_atom(self, atom):
        # immutable interned values behave like ints/strs under deepcopy
        assert copy.deepcopy(atom) is atom

    @given(guarded_tgds())
    def test_deepcopy_returns_the_interned_tgd(self, tgd):
        assert copy.deepcopy(tgd) is tgd


class TestOperationsPreserveInterning:
    @given(atoms(), variables(), constants())
    def test_substitution_application_returns_interned_atoms(
        self, atom, var, const
    ):
        substitution = Substitution({var: const})
        once = substitution.apply_atom(atom)
        again = substitution.apply_atom(atom)
        assert once is again
        assert once is _rebuild_atom(once)

    @given(atoms(), variables(), variables())
    def test_renaming_substitution_preserves_interning(self, atom, source, target):
        substitution = Substitution({source: target})
        image = substitution.apply_atom(atom)
        assert image is _rebuild_atom(image)

    @given(guarded_tgds())
    def test_normalization_is_idempotent_and_interned(self, tgd):
        normalized = normalize_tgd(tgd)
        assert normalize_tgd(normalized) is normalized
        # normalizing a structurally identical clause gives the identical object
        assert normalize_tgd(TGD(tgd.body, tgd.head)) is normalized

    @given(guarded_tgds())
    def test_rename_apart_is_cached_and_invertible_structure(self, tgd):
        renamed_once = tgd.rename_apart("p")
        renamed_again = tgd.rename_apart("p")
        assert renamed_once is renamed_again
        if tgd.variables():
            assert renamed_once is not tgd
        assert len(renamed_once.body) == len(tgd.body)
        assert len(renamed_once.head) == len(tgd.head)


class TestInterningPaysOff:
    def test_most_constructions_during_saturation_are_hits(self):
        # saturation rebuilds the same atoms and clauses over and over; if
        # the constructors stopped returning interned values, most of them
        # would miss
        suite = generate_suite(count=2, seed=2022, min_axioms=12, max_axioms=24)
        reset_intern_counters()
        for item in suite:
            rewrite(item.tgds, algorithm="exbdr")
        assert intern_stats()["overall"]["hit_rate"] > 0.5
