"""Unification and matching: MGUs, X-MGUs, one-sided matching, and the
shared constraint-propagating conjunctive match solver."""

from .matching import (
    is_instance_of,
    is_variant,
    match_atom,
    match_atom_lists,
)
from .solver import (
    MatchSolverStats,
    first_match,
    match_solver_stats,
    reset_match_solver_stats,
    solve_bounded,
    solve_bounded_pairings,
    solve_cover,
    solve_match,
)
from .mgu import (
    UnificationError,
    mgu,
    mgu_atoms,
    rename_disjoint,
    restricted_mgu,
    terms_unifiable,
    unifiable,
)

__all__ = [
    "UnificationError",
    "first_match",
    "is_instance_of",
    "is_variant",
    "match_atom",
    "match_atom_lists",
    "MatchSolverStats",
    "match_solver_stats",
    "mgu",
    "mgu_atoms",
    "rename_disjoint",
    "reset_match_solver_stats",
    "restricted_mgu",
    "solve_bounded",
    "solve_bounded_pairings",
    "solve_cover",
    "solve_match",
    "terms_unifiable",
    "unifiable",
]
