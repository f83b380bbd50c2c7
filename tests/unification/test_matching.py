"""Unit tests for one-sided matching."""

from repro.logic.atoms import Predicate
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, FunctionSymbol, Variable
from repro.unification.matching import (
    is_instance_of,
    is_variant,
    match_atom,
    match_atom_lists,
)
from repro.unification.solver import first_match, solve_match

R = Predicate("R", 2)
S = Predicate("S", 1)
x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c = Constant("a"), Constant("b"), Constant("c")
f = FunctionSymbol("f", 1, is_skolem=True)


class TestMatchAtom:
    def test_variables_bind_to_terms(self):
        match = match_atom(R(x, y), R(a, b))
        assert match is not None
        assert match[x] == a and match[y] == b

    def test_matching_is_one_sided(self):
        # the target's variables are never bound
        assert match_atom(R(a, b), R(x, y)) is None

    def test_repeated_variable_must_match_equal_terms(self):
        assert match_atom(R(x, x), R(a, a)) is not None
        assert match_atom(R(x, x), R(a, b)) is None

    def test_base_substitution_is_respected(self):
        base = Substitution({x: a})
        assert match_atom(R(x, y), R(a, b), base) is not None
        assert match_atom(R(x, y), R(b, b), base) is None

    def test_function_terms_match_structurally(self):
        assert match_atom(S(f(x)), S(f(a))) is not None
        assert match_atom(S(x), S(f(a))) is not None
        assert match_atom(S(f(x)), S(a)) is None

    def test_predicate_mismatch(self):
        assert match_atom(S(x), R(a, b)) is None


class TestMatchLists:
    def test_positional_matching(self):
        match = match_atom_lists((R(x, y), S(x)), (R(a, b), S(a)))
        assert match is not None
        assert match[y] == b

    def test_inconsistent_bindings_fail(self):
        assert match_atom_lists((R(x, y), S(x)), (R(a, b), S(b))) is None

    def test_length_mismatch(self):
        assert match_atom_lists((S(x),), ()) is None


class TestMatchIntoSet:
    def test_enumerates_all_homomorphisms(self):
        targets = (R(a, b), R(a, c), S(a))
        matches = list(solve_match((R(x, y), S(x)), targets))
        images = {m[y] for m in matches}
        assert images == {b, c}

    def test_exists_match(self):
        targets = (R(a, b), S(a))
        assert first_match((R(x, y), S(x)), targets) is not None
        assert first_match((R(x, y), S(y)), targets) is None

    def test_empty_pattern_matches_trivially(self):
        assert first_match((), (S(a),)) is not None


class TestVariantsAndInstances:
    def test_is_instance_of(self):
        assert is_instance_of(R(x, y), R(a, b))
        assert not is_instance_of(R(a, b), R(x, y))

    def test_is_variant(self):
        assert is_variant(R(x, y), R(z, Variable("w")))
        assert not is_variant(R(x, y), R(x, x))
        assert not is_variant(R(x, x), R(x, y))
        assert not is_variant(R(x, y), R(a, y))
