"""Unit tests for existential-free conjunctive query evaluation."""

import pytest

from repro.datalog.engine import materialize
from repro.datalog.store import FactStore
from repro.datalog.query import (
    ConjunctiveQuery,
    QueryValidationError,
    boolean_query_holds,
    evaluate_query,
)
from repro.logic.atoms import Predicate
from repro.logic.parser import parse_program
from repro.logic.terms import Constant, Variable

R = Predicate("R", 2)
S = Predicate("S", 1)
a, b, c = Constant("a"), Constant("b"), Constant("c")
x, y = Variable("x"), Variable("y")


class TestValidation:
    def test_existential_variables_rejected(self):
        with pytest.raises(QueryValidationError):
            ConjunctiveQuery((x,), (R(x, y),))

    def test_answer_variables_must_occur_in_body(self):
        with pytest.raises(QueryValidationError):
            ConjunctiveQuery((x, y), (S(x),))

    def test_duplicate_answer_variables_rejected(self):
        with pytest.raises(QueryValidationError):
            ConjunctiveQuery((x, x), (R(x, x),))

    def test_valid_query(self):
        query = ConjunctiveQuery((x, y), (R(x, y),))
        assert query.arity == 2
        assert "ans" in str(query)


class TestEvaluation:
    def test_single_atom_query(self):
        store = FactStore([R(a, b), R(b, c)])
        query = ConjunctiveQuery((x, y), (R(x, y),))
        assert evaluate_query(query, store) == {(a, b), (b, c)}

    def test_join_query(self):
        store = FactStore([R(a, b), R(b, c), S(b)])
        query = ConjunctiveQuery((x, y), (R(x, y), S(y)))
        assert evaluate_query(query, store) == {(a, b)}

    def test_projection_via_answer_tuple_order(self):
        store = FactStore([R(a, b)])
        query = ConjunctiveQuery((y, x), (R(x, y),))
        assert evaluate_query(query, store) == {(b, a)}

    def test_query_over_materialization_result(self):
        program = parse_program(
            """
            Edge(?x, ?y) -> Reach(?x, ?y).
            Reach(?x, ?y), Edge(?y, ?z) -> Reach(?x, ?z).
            Edge(a, b). Edge(b, c).
            """
        )
        result = materialize(program.tgds, program.instance)
        reach = Predicate("Reach", 2)
        query = ConjunctiveQuery((x,), (reach(x, c),))
        assert evaluate_query(query, result) == {(a,), (b,)}

    def test_query_over_plain_iterable(self):
        query = ConjunctiveQuery((x,), (S(x),))
        assert evaluate_query(query, [S(a), S(b)]) == {(a,), (b,)}

    def test_constants_in_query_body(self):
        store = FactStore([R(a, b), R(c, b)])
        query = ConjunctiveQuery((x,), (R(x, b),))
        assert evaluate_query(query, store) == {(a,), (c,)}

    def test_empty_answer(self):
        store = FactStore([R(a, b)])
        query = ConjunctiveQuery((x,), (S(x),))
        assert evaluate_query(query, store) == frozenset()


class TestBooleanQueries:
    def test_holds(self):
        store = FactStore([R(a, b), S(a)])
        assert boolean_query_holds((R(a, b), S(a)), store)

    def test_does_not_hold(self):
        store = FactStore([R(a, b)])
        assert not boolean_query_holds((R(b, a),), store)
