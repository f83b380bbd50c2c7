"""Left-to-right backtracking subset matching, kept as an executable reference.

:func:`naive_match_conjunction_into_set` is the enumeration that the
constraint-propagating solver (:func:`repro.unification.solver.solve_match`)
replaced.  The property tests check that the solver produces exactly its
substitution set.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence

from repro.logic.atoms import Atom
from repro.logic.substitution import Substitution
from repro.unification.matching import match_atom


def naive_match_conjunction_into_set(
    patterns: Sequence[Atom],
    targets: Sequence[Atom],
    base: Optional[Substitution] = None,
) -> Iterator[Substitution]:
    """Every substitution mapping each pattern atom to some target atom."""
    by_predicate: Dict = {}
    for target in targets:
        by_predicate.setdefault(target.predicate, []).append(target)

    def recurse(index: int, substitution: Substitution) -> Iterator[Substitution]:
        if index == len(patterns):
            yield substitution
            return
        pattern = patterns[index]
        for target in by_predicate.get(pattern.predicate, ()):
            extended = match_atom(pattern, target, substitution)
            if extended is not None:
                yield from recurse(index + 1, extended)

    yield from recurse(0, base or Substitution())
