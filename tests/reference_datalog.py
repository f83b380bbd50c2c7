"""Naive tuple-at-a-time Datalog evaluation, kept as an executable reference.

:func:`naive_reference_fixpoint` is the evaluator that the semi-naive,
plan-based :class:`repro.datalog.engine.DatalogEngine` replaced.  The
differential tests check the engine's materialization against it on random
programs and instances.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Set

from repro.datalog.program import DatalogProgram
from repro.logic.atoms import Atom
from repro.logic.instance import Instance
from repro.logic.rules import Rule
from repro.unification.solver import solve_match


def naive_reference_fixpoint(
    program: DatalogProgram | Iterable[Rule],
    instance: Instance | Iterable[Atom],
) -> FrozenSet[Atom]:
    """The least fixpoint of the rules over the instance, evaluated naively.

    Repeatedly applies every rule over the full fact set until nothing new
    is derivable.  Quadratically re-derives known facts and allocates one
    substitution per match, so its correctness is obvious and its speed is
    not a concern.
    """
    if not isinstance(program, DatalogProgram):
        program = DatalogProgram(program)
    known: Set[Atom] = set(instance)
    changed = True
    while changed:
        changed = False
        snapshot = tuple(known)
        for rule in program:
            for match in solve_match(rule.body, snapshot):
                fact = match.apply_atom(rule.head)
                if fact not in known:
                    known.add(fact)
                    changed = True
    return frozenset(known)
