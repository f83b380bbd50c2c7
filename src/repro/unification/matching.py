"""One-sided matching (subsumption-style unification).

A *matcher* of an atom ``A`` against an atom ``B`` is a substitution ``μ``
with ``μ(A) = B`` (only the variables of ``A`` may be instantiated).  Matching
is the workhorse of subsumption checking (Definition 5.1) and of applying
Datalog rules to ground facts.  A conjunction of patterns is matched into a
set of targets by :func:`repro.unification.solver.solve_match`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..logic.atoms import Atom
from ..logic.substitution import Substitution
from ..logic.terms import FunctionTerm, Term, Variable


def _match_term(
    pattern: Term, target: Term, bindings: Dict[Variable, Term]
) -> bool:
    """Extend ``bindings`` so that the pattern maps onto the target, if possible."""
    if isinstance(pattern, Variable):
        bound = bindings.get(pattern)
        if bound is None:
            bindings[pattern] = target
            return True
        return bound == target
    if isinstance(pattern, FunctionTerm):
        if not isinstance(target, FunctionTerm) or pattern.symbol != target.symbol:
            return False
        return all(
            _match_term(sub_pattern, sub_target, bindings)
            for sub_pattern, sub_target in zip(pattern.args, target.args)
        )
    return pattern == target


def match_atom(
    pattern: Atom, target: Atom, base: Optional[Substitution] = None
) -> Optional[Substitution]:
    """Match a single atom against a target atom.

    Returns the extension of ``base`` witnessing ``μ(pattern) = target``, or
    ``None`` if no such extension exists.
    """
    if pattern.predicate != target.predicate:
        return None
    if pattern.is_ground:
        # A ground pattern matches only itself; atoms are interned, so the
        # comparison is an identity check.
        return (base or Substitution()) if pattern == target else None
    bindings: Dict[Variable, Term] = dict(base.items()) if base else {}
    for pattern_arg, target_arg in zip(pattern.args, target.args):
        if not _match_term(pattern_arg, target_arg, bindings):
            return None
    return Substitution._from_dict(bindings)


def match_atom_lists(
    patterns: Sequence[Atom], targets: Sequence[Atom]
) -> Optional[Substitution]:
    """Match equal-length atom lists position by position."""
    if len(patterns) != len(targets):
        return None
    substitution: Optional[Substitution] = Substitution()
    for pattern, target in zip(patterns, targets):
        substitution = match_atom(pattern, target, substitution)
        if substitution is None:
            return None
    return substitution


def is_instance_of(general: Atom, specific: Atom) -> bool:
    """``True`` if ``specific`` is an instance of ``general``."""
    return match_atom(general, specific) is not None


def is_variant(left: Atom, right: Atom) -> bool:
    """``True`` if the two atoms are equal up to variable renaming."""
    forward = match_atom(left, right)
    backward = match_atom(right, left)
    return (
        forward is not None
        and backward is not None
        and forward.is_renaming()
        and backward.is_renaming()
    )
