"""The oblivious Skolem chase with a term-depth bound.

Skolemizing a set of TGDs and saturating a base instance under the resulting
rules yields exactly the certain base facts (Section 3: ``I, Σ |= F`` iff
``I, sk(Σ) |= F``).  The Skolem chase does not terminate for arbitrary GTGDs,
so this implementation bounds the nesting depth of Skolem terms; bounded runs
*under-approximate* the certain answers, which makes them a useful soundness
oracle and (at sufficient depth on small inputs) a completeness oracle for the
rewriting algorithms.

Two evaluation strategies are provided:

* :meth:`SkolemChase.run` — the hot path: a semi-naive, set-at-a-time loop
  over compiled hash-join plans (:mod:`repro.chase.plans`).  Every round
  evaluates only the (rule, pivot) pipelines whose pivot predicate received
  newly derived facts, so work is proportional to the consequences of the
  last delta instead of the whole fact set.
* :meth:`SkolemChase.run_naive_reference` — the retained per-round
  ``solve_match`` loop, kept as the executable specification the property
  tests compare the semi-naive engine against.  Its one concession to speed
  over the true pre-change loop: per-rule candidate domains are maintained
  incrementally across rounds (facts are appended to the body slots they
  can match when first derived) instead of being rebuilt from the predicate
  buckets on every rule application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..logic.atoms import Atom, Predicate
from ..logic.instance import Instance
from ..logic.rules import Rule
from ..logic.skolem import SkolemFactory, skolemize
from ..logic.substitution import Substitution
from ..logic.tgd import TGD, head_normalize
from ..unification.matching import match_atom
from ..unification.solver import solve_match_prefiltered
from .plans import (
    ChasePlanStats,
    SkolemRulePlan,
    compile_chase_plans,
    run_semi_naive_chase,
)


@dataclass
class SkolemChaseResult:
    """Result of a (possibly bounded) Skolem chase run."""

    facts: FrozenSet[Atom]
    saturated: bool
    rounds: int
    #: per-run semi-naive plan counters (see repro.chase.plans); ``None`` for
    #: naive-reference runs and plan-unsupported fallbacks
    plan_stats: Optional[Dict[str, object]] = None

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
        # compiled once per chase, reused by every run(); None when some body
        # is outside the plan fragment (never the case for Skolemized TGDs)
        self._plans: Optional[Tuple[SkolemRulePlan, ...]] = compile_chase_plans(
            self._rules
        )

    @property
    def rules(self) -> Tuple[Rule, ...]:
        return self._rules

    # ------------------------------------------------------------------
    # chase (semi-naive, over compiled join plans)
    # ------------------------------------------------------------------
    def run(self, instance: Instance | Iterable[Atom]) -> SkolemChaseResult:
        """Saturate the instance; stop when the depth bound prunes all new facts."""
        if self._plans is None:
            return self.run_naive_reference(instance)
        stats = ChasePlanStats()
        facts, saturated, rounds = run_semi_naive_chase(
            self._plans,
            instance,
            max_term_depth=self.max_term_depth,
            max_facts=self.max_facts,
            stats=stats,
        )
        plans_compiled = sum(plan.compiled_variant_count for plan in self._plans)
        return SkolemChaseResult(
            frozenset(facts),
            saturated=saturated,
            rounds=rounds,
            plan_stats=stats.snapshot(plans_compiled),
        )

    # ------------------------------------------------------------------
    # naive reference (the executable spec)
    # ------------------------------------------------------------------
    def run_naive_reference(
        self, instance: Instance | Iterable[Atom]
    ) -> SkolemChaseResult:
        """The retained per-round loop: re-enumerate every rule's matches.

        Each round solves every rule's full body-match problem against the
        complete fact set — quadratically re-deriving known facts — which is
        exactly what makes it an obviously correct specification for the
        semi-naive engine.  It differs from the pre-change loop in one way:
        per-rule candidate domains are maintained incrementally across
        rounds (see :class:`_RuleDomains`) instead of being rebuilt from the
        predicate buckets per rule application; the solve itself is
        unchanged.
        """
        facts: Set[Atom] = set(instance)
        domains = _RuleDomains(self._rules, facts)

        def add_fact(fact: Atom) -> bool:
            if fact in facts:
                return False
            facts.add(fact)
            domains.add_fact(fact)
            return True

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
                        continue
                    if add_fact(head_fact):
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
    matches are picked up by the next round exactly as the bucketed solve
    did.
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
