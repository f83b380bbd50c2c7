"""Entailment oracles used to validate the rewriting algorithms.

The helpers in this module expose
:class:`repro.chase.guarded_engine.GuardedChaseReasoner` — a sound and
complete (but worst-case exponential) decision procedure based on type
closures — behind a single small interface.  The depth-bounded Skolem chase
(:func:`repro.chase.skolem_chase.skolem_chase_base_facts`) is the cheaper,
sound but only depth-complete cross-check.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from ..logic.atoms import Atom
from ..logic.instance import Instance
from ..logic.tgd import TGD
from .guarded_engine import GuardedChaseReasoner


def certain_base_facts(
    instance: Instance | Iterable[Atom], tgds: Iterable[TGD]
) -> FrozenSet[Atom]:
    """All base facts entailed by the instance and the GTGDs (exact oracle)."""
    reasoner = GuardedChaseReasoner(tgds)
    return reasoner.entailed_base_facts(instance)


def entails(
    instance: Instance | Iterable[Atom], tgds: Iterable[TGD], fact: Atom
) -> bool:
    """Decide ``I, Σ |= F`` with the exact oracle."""
    reasoner = GuardedChaseReasoner(tgds)
    return reasoner.entails(instance, fact)


def oracle_agrees(
    instance: Instance | Iterable[Atom],
    tgds: Iterable[TGD],
    candidate_facts: Iterable[Atom],
) -> bool:
    """``True`` if ``candidate_facts`` equals the exact set of certain base facts."""
    expected = certain_base_facts(instance, tgds)
    actual = frozenset(fact for fact in candidate_facts if fact.is_base_fact)
    return expected == actual
