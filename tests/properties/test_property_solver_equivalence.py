"""Differential properties: the constraint-propagating solver vs naive references.

The shared match solver (:mod:`repro.unification.solver`) must enumerate
exactly the substitution set of the retained naive enumerations on every
random conjunction — subset matching against
:func:`tests.reference_matching.naive_match_conjunction_into_set`, head
covering against a left-to-right backtracking recursion, and the
bounded-range mode against the literal cartesian-product-and-filter that
FullDR used to run.  Every enumerator in the codebase (FullDR, the Skolem
and guarded chases, exact subsumption, the naive Datalog reference
evaluator) routes through the solver, so these properties are what anchors
their correctness.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.logic.atoms import Atom
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.unification.matching import match_atom
from repro.unification.solver import (
    solve_bounded,
    solve_cover,
    solve_match,
)

from ..reference_matching import naive_match_conjunction_into_set
from .strategies import atoms, ground_atoms

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

BOUNDED_VARIABLES = tuple(Variable(name) for name in ("x", "y", "z"))
BOUNDED_RANGE_POOL = (
    Constant("a"),
    Constant("b"),
    Variable("w0"),
)


def _naive_cover(patterns, targets, base):
    """Left-to-right reference for μ(patterns) ⊇ targets (pre-solver shape)."""

    def recurse(index, current):
        if index == len(targets):
            yield current
            return
        for pattern in patterns:
            extended = match_atom(pattern, targets[index], current)
            if extended is not None:
                yield from recurse(index + 1, extended)

    yield from recurse(0, base)


def _naive_bounded(variables, range_terms, equalities):
    """FullDR's original enumeration: full cartesian product, then filter."""
    for images in itertools.product(range_terms, repeat=len(variables)):
        theta = Substitution(dict(zip(variables, images)))
        if all(
            theta.apply_atom(left) == theta.apply_atom(right)
            for left, right in equalities
        ):
            yield theta


@st.composite
def partial_bases(draw):
    """A pre-seeded substitution over a few of the shared variable names."""
    mapping = {}
    for name in draw(st.sets(st.sampled_from(("x", "y")), max_size=2)):
        mapping[Variable(name)] = draw(
            st.sampled_from((Constant("a"), Constant("b")))
        )
    return Substitution(mapping)


class TestMatchEquivalence:
    @RELAXED
    @given(
        st.lists(atoms(), max_size=3),
        st.lists(ground_atoms(), max_size=6),
    )
    def test_solver_matches_naive_reference(self, patterns, facts):
        expected = set(naive_match_conjunction_into_set(patterns, facts))
        got = set(solve_match(patterns, facts))
        assert got == expected

    @RELAXED
    @given(
        st.lists(atoms(), max_size=3),
        st.lists(ground_atoms(), max_size=5),
        partial_bases(),
    )
    def test_solver_matches_naive_reference_with_base(
        self, patterns, facts, base
    ):
        expected = set(naive_match_conjunction_into_set(patterns, facts, base))
        got = set(solve_match(patterns, facts, base))
        assert got == expected

    @RELAXED
    @given(
        st.lists(atoms(), max_size=3),
        st.lists(atoms(), max_size=4),
    )
    def test_solver_matches_naive_reference_on_clause_atoms(
        self, patterns, targets
    ):
        # subsumption matches pattern atoms into *clause* atoms, which may
        # themselves contain variables (the one-sided matching still only
        # instantiates the pattern side)
        expected = set(naive_match_conjunction_into_set(patterns, targets))
        got = set(solve_match(patterns, targets))
        assert got == expected


class TestCoverEquivalence:
    @RELAXED
    @given(
        st.lists(atoms(), min_size=1, max_size=3),
        st.lists(atoms(), max_size=3),
    )
    def test_solver_cover_matches_naive_reference(self, patterns, targets):
        expected = set(_naive_cover(patterns, targets, Substitution()))
        got = set(solve_cover(patterns, targets))
        assert got == expected


@st.composite
def bounded_problems(draw):
    """Random (variables, range, equalities) triples kept deliberately tiny.

    The naive reference walks ``|range| ** |variables|`` substitutions, so
    the sizes here bound it to a few hundred checks per example.
    """
    variables = BOUNDED_VARIABLES[: draw(st.integers(min_value=0, max_value=3))]
    range_terms = tuple(
        draw(st.sets(st.sampled_from(BOUNDED_RANGE_POOL), max_size=3))
    )
    pool = variables + (Constant("a"), Constant("c"), Variable("free"))
    equalities = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        pattern = draw(atoms())
        left = Atom(
            pattern.predicate,
            tuple(draw(st.sampled_from(pool)) for _ in pattern.args),
        )
        right = Atom(
            pattern.predicate,
            tuple(draw(st.sampled_from(pool)) for _ in pattern.args),
        )
        equalities.append((left, right))
    return variables, range_terms, tuple(equalities)


class TestBoundedEquivalence:
    @RELAXED
    @given(bounded_problems())
    def test_solver_matches_cartesian_filter_reference(self, problem):
        variables, range_terms, equalities = problem
        expected = set(_naive_bounded(variables, range_terms, equalities))
        got = set(solve_bounded(variables, range_terms, equalities))
        assert got == expected
