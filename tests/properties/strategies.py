"""Hypothesis strategies for terms, atoms, substitutions, guarded TGDs and rules."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.logic.atoms import Atom, Predicate
from repro.logic.rules import Rule
from repro.logic.skolem import SkolemFactory, skolemize_tgd
from repro.logic.terms import Constant, FunctionSymbol, FunctionTerm, Null, Variable
from repro.logic.tgd import TGD

VARIABLE_NAMES = ("x", "y", "z", "u", "v")
CONSTANT_NAMES = ("a", "b", "c")
FUNCTION_NAMES = ("f", "g")
PREDICATE_POOL = tuple(
    Predicate(name, arity)
    for name, arity in (("P", 1), ("Q", 1), ("R", 2), ("S", 2), ("T", 3))
)


@st.composite
def variables(draw) -> Variable:
    return Variable(draw(st.sampled_from(VARIABLE_NAMES)))


@st.composite
def constants(draw) -> Constant:
    return Constant(draw(st.sampled_from(CONSTANT_NAMES)))


@st.composite
def nulls(draw) -> Null:
    return Null(draw(st.integers(min_value=0, max_value=5)))


@st.composite
def function_symbols(draw) -> FunctionSymbol:
    return FunctionSymbol(
        draw(st.sampled_from(FUNCTION_NAMES)),
        draw(st.integers(min_value=0, max_value=2)),
        is_skolem=draw(st.booleans()),
    )


@st.composite
def function_terms(draw) -> FunctionTerm:
    symbol = draw(function_symbols())
    return FunctionTerm(symbol, tuple(draw(terms()) for _ in range(symbol.arity)))


def predicates():
    return st.sampled_from(PREDICATE_POOL)


@st.composite
def terms(draw):
    if draw(st.booleans()):
        return draw(variables())
    return draw(constants())


@st.composite
def atoms(draw, ground: bool = False) -> Atom:
    predicate = draw(st.sampled_from(PREDICATE_POOL))
    if ground:
        args = tuple(draw(constants()) for _ in range(predicate.arity))
    else:
        args = tuple(draw(terms()) for _ in range(predicate.arity))
    return Atom(predicate, args)


@st.composite
def ground_atoms(draw) -> Atom:
    return draw(atoms(ground=True))


@st.composite
def guarded_tgds(draw) -> TGD:
    """A single random guarded TGD built around an explicit guard atom."""
    guard_predicate = draw(st.sampled_from([p for p in PREDICATE_POOL if p.arity >= 1]))
    universal = tuple(
        Variable(f"x{index}") for index in range(guard_predicate.arity)
    )
    guard = Atom(guard_predicate, universal)
    body = [guard]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        predicate = draw(st.sampled_from(PREDICATE_POOL))
        args = tuple(
            draw(st.sampled_from(universal)) for _ in range(predicate.arity)
        )
        body.append(Atom(predicate, args))
    existential_count = draw(st.integers(min_value=0, max_value=2))
    existential = tuple(Variable(f"y{index}") for index in range(existential_count))
    pool = universal + existential if existential else universal
    head = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        predicate = draw(st.sampled_from(PREDICATE_POOL))
        args = tuple(draw(st.sampled_from(pool)) for _ in range(predicate.arity))
        head.append(Atom(predicate, args))
    return TGD(tuple(body), tuple(head))


@st.composite
def rules(draw) -> Rule:
    """One rule of the Skolemization of a random guarded TGD."""
    return draw(st.sampled_from(skolemize_tgd(draw(guarded_tgds()), SkolemFactory())))


@st.composite
def guarded_tgd_sets(draw, max_size: int = 5):
    count = draw(st.integers(min_value=1, max_value=max_size))
    return tuple(draw(guarded_tgds()) for _ in range(count))


@st.composite
def base_instances(draw, max_size: int = 5):
    count = draw(st.integers(min_value=1, max_value=max_size))
    return tuple(draw(ground_atoms()) for _ in range(count))
