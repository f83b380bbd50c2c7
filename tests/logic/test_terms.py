"""Unit tests for terms: constants, variables, nulls, functional terms."""

import pytest

from repro.logic.terms import (
    Constant,
    FunctionSymbol,
    FunctionTerm,
    Null,
    Variable,
)


class TestBasicTerms:
    def test_constant_equality_and_hash(self):
        assert Constant("a") == Constant("a")
        assert Constant("a") != Constant("b")
        assert hash(Constant("a")) == hash(Constant("a"))

    def test_variable_equality_and_hash(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")
        assert hash(Variable("x")) == hash(Variable("x"))

    def test_constant_and_variable_are_distinct(self):
        assert Constant("x") != Variable("x")

    def test_null_equality(self):
        assert Null(3) == Null(3)
        assert Null(3) != Null(4)

    def test_groundness(self):
        assert Constant("a").is_ground
        assert Null(0).is_ground
        assert not Variable("x").is_ground

    def test_string_rendering(self):
        assert str(Constant("a")) == "a"
        assert str(Variable("x")) == "?x"
        assert str(Null(7)) == "_:n7"

    def test_depth_of_atomic_terms(self):
        assert Constant("a").depth == 0
        assert Variable("x").depth == 0
        assert Null(0).depth == 0


class TestFunctionTerms:
    def test_arity_is_enforced(self):
        f = FunctionSymbol("f", 2)
        with pytest.raises(ValueError):
            FunctionTerm(f, (Variable("x"),))

    def test_call_syntax_builds_terms(self):
        f = FunctionSymbol("f", 1)
        term = f(Variable("x"))
        assert isinstance(term, FunctionTerm)
        assert term.symbol == f

    def test_groundness_of_function_terms(self):
        f = FunctionSymbol("f", 2)
        assert f(Constant("a"), Constant("b")).is_ground
        assert not f(Constant("a"), Variable("x")).is_ground

    def test_depth_of_nested_terms(self):
        f = FunctionSymbol("f", 1)
        g = FunctionSymbol("g", 1)
        assert f(Constant("a")).depth == 1
        assert f(g(Variable("x"))).depth == 2

    def test_variables_of_nested_terms(self):
        f = FunctionSymbol("f", 2)
        term = f(Variable("x"), f(Variable("y"), Constant("a")))
        assert set(term.variables()) == {Variable("x"), Variable("y")}
        assert set(term.constants()) == {Constant("a")}

    def test_function_symbols_iteration(self):
        f = FunctionSymbol("f", 1)
        g = FunctionSymbol("g", 1)
        term = f(g(Constant("a")))
        assert [sym.name for sym in term.function_symbols()] == ["f", "g"]

    def test_equality_requires_same_symbol_and_args(self):
        f = FunctionSymbol("f", 1)
        g = FunctionSymbol("g", 1)
        assert f(Constant("a")) == f(Constant("a"))
        assert f(Constant("a")) != g(Constant("a"))
        assert f(Constant("a")) != f(Constant("b"))

    def test_skolem_flag_distinguishes_symbols(self):
        assert FunctionSymbol("f", 1, is_skolem=True) != FunctionSymbol(
            "f", 1, is_skolem=False
        )

