"""The oblivious Skolem chase with a term-depth bound.

Skolemizing a set of TGDs and saturating a base instance under the resulting
rules yields exactly the certain base facts (Section 3: ``I, Σ |= F`` iff
``I, sk(Σ) |= F``).  The Skolem chase does not terminate for arbitrary GTGDs,
so this implementation bounds the nesting depth of Skolem terms; bounded runs
*under-approximate* the certain answers, which makes them a useful soundness
oracle and (at sufficient depth on small inputs) a completeness oracle for the
rewriting algorithms.

Each round solves every rule's body-match problem against the whole fact
set with :func:`repro.unification.solver.solve_match_prefiltered`, so known
facts are re-derived every round; that makes the loop an obviously correct
specification.  The chase is the paper's reference semantics, not its
answering path (queries go through the Datalog rewriting), so only the tests
run it, as a bounded oracle on small inputs.  Per-rule candidate domains
are kept incrementally across rounds (see :class:`_RuleDomains`) instead of
being rebuilt from the predicate buckets on every rule application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..logic.atoms import Atom, Predicate
from ..logic.instance import Instance
from ..logic.rules import Rule
from ..logic.skolem import SkolemFactory, skolemize
from ..logic.substitution import Substitution
from ..logic.tgd import TGD, head_normalize
from ..unification.matching import match_atom
from ..unification.solver import solve_match_prefiltered


@dataclass
class SkolemChaseResult:
    """Result of a (possibly bounded) Skolem chase run."""

    facts: FrozenSet[Atom]
    saturated: bool
    rounds: int

    def base_facts(self) -> FrozenSet[Atom]:
        """Facts over constants only (the observable output of the chase)."""
        return frozenset(fact for fact in self.facts if fact.is_base_fact)

    def __contains__(self, fact: Atom) -> bool:
        return fact in self.facts


class SkolemChase:
    """Bottom-up saturation of a base instance under Skolemized TGDs."""

    def __init__(
        self,
        tgds: Iterable[TGD],
        max_term_depth: int = 4,
        max_facts: int = 200_000,
    ) -> None:
        normalized = head_normalize(tgds)
        self._rules: Tuple[Rule, ...] = skolemize(normalized, SkolemFactory())
        self.max_term_depth = max_term_depth
        self.max_facts = max_facts

    @property
    def rules(self) -> Tuple[Rule, ...]:
        return self._rules

    def run(self, instance: Instance | Iterable[Atom]) -> SkolemChaseResult:
        """Saturate the instance; stop when the depth bound prunes all new facts.

        ``saturated`` is ``False`` when the depth bound pruned a fact or the
        run stopped past ``max_facts``.
        """
        facts: Set[Atom] = set(instance)
        domains = _RuleDomains(self._rules, facts)
        rounds = 0
        saturated = True
        changed = True
        max_term_depth = self.max_term_depth
        max_facts = self.max_facts
        while changed:
            changed = False
            rounds += 1
            for rule in self._rules:
                for substitution in domains.matches(rule):
                    head_fact = substitution.apply_atom(rule.head)
                    # Atom.depth is cached on the interned atom, so re-derived
                    # facts answer the depth-bound check without re-walking
                    # their Skolem terms
                    if head_fact.depth > max_term_depth:
                        saturated = False
                    elif head_fact not in facts:
                        facts.add(head_fact)
                        domains.add_fact(head_fact)
                        changed = True
                        if len(facts) > max_facts:
                            return SkolemChaseResult(
                                frozenset(facts), saturated=False, rounds=rounds
                            )
        return SkolemChaseResult(frozenset(facts), saturated=saturated, rounds=rounds)


class _RuleDomains:
    """Incrementally maintained per-rule body-slot candidate domains.

    For every rule and every body atom, the facts that can match that atom in
    isolation (same predicate, compatible constants and repeated variables)
    are kept in a list that grows as facts are derived — instead of being
    recomputed from the predicate buckets by every ``solve_match`` call of
    every round.  The lists are passed to
    :func:`repro.unification.solver.solve_match_prefiltered`, which snapshots
    them in its generator prologue, so appends made while a round is pulling
    matches are picked up by the next round.
    """

    __slots__ = ("_by_predicate", "_slots")

    def __init__(self, rules: Tuple[Rule, ...], seed_facts: Iterable[Atom]) -> None:
        # predicate -> [(pattern atom, candidate list)] over all rule slots;
        # slot lists are shared between rules via the pattern atom (atoms are
        # interned, so identical body atoms share one list)
        self._by_predicate: Dict[Predicate, List[Tuple[Atom, List[Atom]]]] = {}
        self._slots: Dict[Rule, Tuple[List[Atom], ...]] = {}
        shared: Dict[Atom, List[Atom]] = {}
        for rule in rules:
            slot_lists: List[List[Atom]] = []
            for atom in rule.body:
                candidates = shared.get(atom)
                if candidates is None:
                    candidates = shared[atom] = []
                    self._by_predicate.setdefault(atom.predicate, []).append(
                        (atom, candidates)
                    )
                slot_lists.append(candidates)
            self._slots[rule] = tuple(slot_lists)
        for fact in seed_facts:
            self.add_fact(fact)

    def add_fact(self, fact: Atom) -> None:
        for pattern, candidates in self._by_predicate.get(fact.predicate, ()):
            if match_atom(pattern, fact) is not None:
                candidates.append(fact)

    def matches(self, rule: Rule) -> Iterable[Substitution]:
        return solve_match_prefiltered(rule.body, self._slots[rule])


def skolem_chase_base_facts(
    instance: Instance | Iterable[Atom],
    tgds: Iterable[TGD],
    max_term_depth: int = 4,
) -> FrozenSet[Atom]:
    """Convenience wrapper: the base facts derivable within the depth bound."""
    chase = SkolemChase(tgds, max_term_depth=max_term_depth)
    return chase.run(instance).base_facts()


def skolem_chase_entails(
    instance: Instance | Iterable[Atom],
    tgds: Iterable[TGD],
    fact: Atom,
    max_term_depth: int = 4,
) -> bool:
    """Sound (but depth-bounded) entailment check for a single base fact."""
    return fact in skolem_chase_base_facts(instance, tgds, max_term_depth)
