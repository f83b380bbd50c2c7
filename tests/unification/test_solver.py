"""Unit tests for the constraint-propagating conjunctive match solver.

These pin the solver's *internals* — most-constrained-variable ordering,
forward-checking prunes, pre-seeded substitution handling, and the
empty-domain early exit — via the stats counters; equivalence with the
retained naive enumerations is covered by the property tests in
``tests/properties/test_property_solver_equivalence.py``.
"""

import itertools

import pytest

from repro.logic.atoms import Predicate
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.unification.solver import (
    GLOBAL_MATCH_SOLVER_STATS,
    MatchSolverStats,
    first_match,
    match_solver_stats,
    reset_match_solver_stats,
    solve_bounded,
    solve_bounded_pairings,
    solve_cover,
    solve_match,
)

P = Predicate("P", 1)
Q = Predicate("Q", 1)
R = Predicate("R", 2)
S = Predicate("S", 2)
x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c = Constant("a"), Constant("b"), Constant("c")


def constants(prefix, count):
    return [Constant(f"{prefix}{index}") for index in range(count)]


class TestSolveMatch:
    def test_enumerates_all_homomorphisms(self):
        targets = (R(a, b), R(a, c), P(a))
        matches = list(solve_match((R(x, y), P(x)), targets))
        assert {m[y] for m in matches} == {b, c}
        assert all(m[x] == a for m in matches)

    def test_empty_patterns_yield_base(self):
        base = Substitution({x: a})
        matches = list(solve_match((), (P(a),), base))
        assert matches == [base]

    def test_pre_seeded_substitution_restricts_candidates(self):
        targets = (R(a, b), R(b, c))
        base = Substitution({x: b})
        matches = list(solve_match((R(x, y),), targets, base))
        assert len(matches) == 1
        assert matches[0][x] == b and matches[0][y] == c
        # the base bindings survive in every solution
        assert all(m[x] == b for m in matches)

    def test_pre_seeded_substitution_can_rule_out_everything(self):
        stats = MatchSolverStats()
        base = Substitution({x: c})
        matches = list(solve_match((R(x, y),), (R(a, b),), base, stats))
        assert matches == []
        assert stats.empty_domain_exits == 1
        assert stats.nodes_expanded == 0

    def test_most_constrained_slot_branches_first(self):
        # R(x, y) has many candidates, P(x) exactly one; branching on P
        # first binds x immediately and prunes R's candidates, so far fewer
        # nodes are expanded than the left-to-right product would visit
        many = constants("k", 30)
        targets = tuple(R(k, k) for k in many) + (R(a, b), P(a))
        stats = MatchSolverStats()
        matches = list(solve_match((R(x, y), P(x)), targets, stats=stats))
        assert len(matches) == 1
        # one node for P(a), one for the sole surviving R candidate
        assert stats.nodes_expanded == 2
        assert stats.domains_pruned >= 30

    def test_upfront_domain_intersection_detects_emptiness(self):
        # x must be a in P-land and b in Q-land: the intersected domain is
        # empty, so the search never expands a node
        stats = MatchSolverStats()
        matches = list(solve_match((P(x), Q(x)), (P(a), Q(b)), stats=stats))
        assert matches == []
        assert stats.empty_domain_exits >= 1
        assert stats.nodes_expanded == 0

    def test_missing_predicate_is_an_early_exit(self):
        stats = MatchSolverStats()
        matches = list(solve_match((P(x), S(x, y)), (P(a),), stats=stats))
        assert matches == []
        assert stats.empty_domain_exits == 1
        assert stats.nodes_expanded == 0

    def test_forward_checking_prunes_after_binding(self):
        # every per-variable domain is full (y can be a or b in both slots),
        # so the up-front intersection prunes nothing; only binding R(x, y)
        # reveals which S candidate survives — forward checking prunes the
        # other one on each branch
        d = Constant("d")
        targets = (R(a, b), R(b, a), S(b, c), S(a, d))
        stats = MatchSolverStats()
        matches = list(solve_match((R(x, y), S(y, z)), targets, stats=stats))
        assert {(m[x], m[z]) for m in matches} == {(a, c), (b, d)}
        assert stats.domains_pruned == 2
        assert stats.empty_domain_exits == 0

    def test_repeated_variable_within_an_atom(self):
        matches = list(solve_match((R(x, x),), (R(a, a), R(a, b))))
        assert len(matches) == 1
        assert matches[0][x] == a

    def test_first_match(self):
        assert first_match((R(x, y),), (R(a, b),)) is not None
        assert first_match((R(x, y),), (P(a),)) is None

    def test_accepts_predicate_indexed_universe(self):
        universe = {R: [R(a, b)], P: [P(a)]}
        matches = list(solve_match((R(x, y), P(x)), universe))
        assert len(matches) == 1


class TestSolveCover:
    def test_every_target_must_be_covered(self):
        # head P(x) ∧ Q(y) covers targets (P(a), Q(b)) one way
        matches = list(solve_cover((P(x), Q(y)), (P(a), Q(b))))
        assert len(matches) == 1
        assert matches[0][x] == a and matches[0][y] == b

    def test_uncoverable_target_exits_early(self):
        stats = MatchSolverStats()
        matches = list(solve_cover((P(x),), (Q(a),), stats=stats))
        assert matches == []
        assert stats.empty_domain_exits == 1
        assert stats.nodes_expanded == 0

    def test_base_substitution_is_respected(self):
        base = Substitution({x: a})
        assert list(solve_cover((P(x),), (P(b),), base)) == []
        covered = list(solve_cover((P(x),), (P(a),), base))
        assert len(covered) == 1

    def test_empty_targets_yield_base(self):
        base = Substitution({x: a})
        assert list(solve_cover((P(x),), (), base)) == [base]


class TestSolveBounded:
    def test_unconstrained_variables_range_over_the_pool(self):
        solutions = list(solve_bounded((x, y), (a, b)))
        images = {(s[x], s[y]) for s in solutions}
        assert images == set(itertools.product((a, b), repeat=2))

    def test_equality_merges_variable_classes(self):
        solutions = list(solve_bounded((x, y), (a, b), equalities=((P(x), P(y)),)))
        assert {(s[x], s[y]) for s in solutions} == {(a, a), (b, b)}

    def test_equality_against_rigid_term_forces_the_class(self):
        stats = MatchSolverStats()
        solutions = list(
            solve_bounded((x, y), (a, b), equalities=((R(x, y), R(x, a)),), stats=stats)
        )
        assert {(s[x], s[y]) for s in solutions} == {(a, a), (b, a)}
        # forcing y collapses its domain from two values to one
        assert stats.domains_pruned >= 1

    def test_rigid_term_outside_the_range_is_unsatisfiable(self):
        stats = MatchSolverStats()
        solutions = list(
            solve_bounded((x,), (a, b), equalities=((P(x), P(c)),), stats=stats)
        )
        assert solutions == []
        assert stats.empty_domain_exits == 1

    def test_contradictory_forcings_are_unsatisfiable(self):
        solutions = list(
            solve_bounded((x,), (a, b), equalities=((R(x, x), R(a, b)),))
        )
        assert solutions == []

    def test_empty_range_with_free_variables_exits_early(self):
        stats = MatchSolverStats()
        assert list(solve_bounded((x,), (), stats=stats)) == []
        assert stats.empty_domain_exits == 1
        assert stats.nodes_expanded == 0

    def test_no_variables_yields_the_empty_substitution(self):
        solutions = list(solve_bounded((), (a, b)))
        assert len(solutions) == 1
        assert not solutions[0]

    def test_pre_seeded_base_forces_listed_variables(self):
        # base images need not come from the range
        solutions = list(solve_bounded((x, y), (a, b), base=Substitution({x: c})))
        assert {(s[x], s[y]) for s in solutions} == {(c, a), (c, b)}

    def test_variables_outside_the_domain_act_rigid(self):
        # z is not solved for: the equality pins x to the term z itself
        solutions = list(
            solve_bounded((x,), (a, z), equalities=((P(x), P(z)),))
        )
        assert [s[x] for s in solutions] == [z]

    def test_solutions_never_exceed_the_satisfying_set(self):
        stats = MatchSolverStats()
        pool = tuple(constants("t", 5))
        solutions = list(
            solve_bounded(
                (x, y, z), pool, equalities=((R(x, y), R(z, pool[0])),), stats=stats
            )
        )
        # x~z merged, y forced: one free class of 5 values
        assert len(solutions) == 5
        assert stats.solutions == 5


class TestSolveBoundedPairings:
    def test_enumerates_nonempty_selections_only(self):
        body = (P(x), Q(y))
        heads = (P(z),)
        results = list(solve_bounded_pairings(body, heads, (x, y, z), (a,)))
        selections = {tuple(pair) for pair, _ in results}
        assert selections == {((P(x), P(z)),)}
        for selection, theta in results:
            assert theta.apply_atom(selection[0][0]) == theta.apply_atom(
                selection[0][1]
            )

    def test_inconsistent_pairing_prunes_the_subtree(self):
        # pairing R(x, x) with R(a, b) is contradictory; no selection
        # containing it survives
        stats = MatchSolverStats()
        results = list(
            solve_bounded_pairings((R(a, b),), (R(x, x),), (x,), (a, b), stats=stats)
        )
        assert results == []
        assert stats.empty_domain_exits >= 1

    def test_matches_brute_force_on_a_small_instance(self):
        body = (P(x), P(y))
        heads = (P(z), P(a))
        variables = (x, y, z)
        pool = (a, b)
        got = {
            (selection, theta)
            for selection, theta in solve_bounded_pairings(
                body, heads, variables, pool
            )
        }
        # brute force: every nonempty pairing, every total substitution
        expected = set()
        options = [[None, *heads], [None, *heads]]
        for combo in itertools.product(*options):
            selection = tuple(
                (body_atom, head_atom)
                for body_atom, head_atom in zip(body, combo)
                if head_atom is not None
            )
            if not selection:
                continue
            for images in itertools.product(pool, repeat=len(variables)):
                theta = Substitution(dict(zip(variables, images)))
                if all(
                    theta.apply_atom(body_atom) == theta.apply_atom(head_atom)
                    for body_atom, head_atom in selection
                ):
                    expected.add((selection, theta))
        assert got == expected


class TestStats:
    def test_global_counters_accumulate_and_reset(self):
        reset_match_solver_stats()
        list(solve_match((P(x),), (P(a), P(b))))
        snapshot = match_solver_stats()
        assert snapshot["solves"] == 1
        assert snapshot["solutions"] == 2
        reset_match_solver_stats()
        assert match_solver_stats()["solves"] == 0

    def test_explicit_stats_do_not_touch_the_global(self):
        reset_match_solver_stats()
        stats = MatchSolverStats()
        list(solve_match((P(x),), (P(a),), stats=stats))
        assert stats.solves == 1
        assert GLOBAL_MATCH_SOLVER_STATS.solves == 0

    def test_snapshot_keys(self):
        assert set(MatchSolverStats().snapshot()) == {
            "solves",
            "solutions",
            "nodes_expanded",
            "domains_pruned",
            "empty_domain_exits",
        }


@pytest.fixture(autouse=True)
def _reset_global_stats():
    yield
    reset_match_solver_stats()


class TestSolveUnificationSlots:
    def _differential(self, side_atoms, candidate_lists, frozen):
        """Reference: cartesian product with one full restricted MGU each."""
        from repro.unification.mgu import restricted_mgu

        expected = []
        for combination in itertools.product(*candidate_lists):
            theta = restricted_mgu(combination, side_atoms, frozen)
            if theta is not None:
                expected.append((tuple(combination), theta))
        return expected

    def test_matches_product_enumeration_and_order(self):
        u, v = Variable("u"), Variable("v")
        side_atoms = (R(x, y), S(y, z))
        candidate_lists = [
            [R(u, a), R(u, b), R(a, v)],
            [S(a, b), S(b, c), S(u, v)],
        ]
        from repro.unification.solver import solve_unification_slots

        got = list(solve_unification_slots(side_atoms, candidate_lists, frozenset()))
        expected = self._differential(side_atoms, candidate_lists, frozenset())
        assert got == expected
        assert len(got) >= 2  # the case is non-trivial

    def test_frozen_variables_are_respected(self):
        side_atoms = (R(x, y),)
        candidate_lists = [[R(a, y), R(x, b), R(a, b)]]
        frozen = frozenset((x, y))
        from repro.unification.solver import solve_unification_slots

        got = list(solve_unification_slots(side_atoms, candidate_lists, frozen))
        expected = self._differential(side_atoms, candidate_lists, frozen)
        assert got == expected

    def test_empty_candidate_list_short_circuits(self):
        from repro.unification.solver import solve_unification_slots

        stats = MatchSolverStats()
        got = list(
            solve_unification_slots(
                (R(x, y), S(y, z)), [[R(a, b)], []], frozenset(), stats=stats
            )
        )
        assert got == []
        assert stats.empty_domain_exits >= 1
        assert stats.nodes_expanded == 0

    def test_forward_checking_prunes_incompatible_slots(self):
        # binding the first slot forces x = a, which empties the second
        # slot's domain without ever expanding its candidates
        stats = MatchSolverStats()
        from repro.unification.solver import solve_unification_slots

        got = list(
            solve_unification_slots(
                (R(x, x), S(x, y)),
                [[R(a, a)], [S(b, c), S(c, c)]],
                frozenset(),
                stats=stats,
            )
        )
        assert got == []
        assert stats.domains_pruned >= 2
