"""The Hyperresolution Rewriting inference rule HypDR (Definition 5.16).

HypDR uses hyperresolution as a "macro" that combines several SkDR steps into
one: all body atoms of a Skolem-free rule that would be matched to facts of a
chase child vertex are resolved simultaneously against rules with Skolem-free
bodies and Skolem-containing heads.  Consequently every derived rule has a
Skolem-free body, so no intermediate rules with functional body atoms (such
as rule (26) or (28) of the running example) and no "dead-end" rules (such as
rule (29)) are ever produced.

The premises are

``τ1 = β1 → H1   ...   τn = βn → Hn``   (each βi Skolem-free, Hi with a Skolem)
``τ' = A'1 ∧ ... ∧ A'n ∧ β' → H'``       (Skolem-free)

and, for ``θ`` an MGU of ``H1..Hn`` and ``A'1..A'n`` with ``θ(β')``
Skolem-free, the conclusion is ``θ(β1) ∧ ... ∧ θ(βn) ∧ θ(β') → θ(H')``.

The implementation enumerates inferences by seeding the resolution with one
body atom of ``τ'`` and then *forcing* the resolution of every remaining body
atom that mentions a Skolem term under the current unifier; a conclusion is
emitted whenever the remaining body atoms are Skolem-free.  Iterating this
over all seeds yields every conclusion needed for completeness (Theorem 5.19):
a conclusion that our search realizes in several emissions is reconstructed
by subsequent saturation steps on the emitted (Skolem-free) rules.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..indexing.path_index import RulePathIndex
from ..logic.atoms import Atom
from ..logic.rules import Rule
from ..logic.skolem import SkolemFactory, skolemize
from ..logic.tgd import TGD, head_normalize
from ..unification.mgu import mgu
from .base import InferenceRule, RewritingSettings, dedupe_atoms


class HypDR(InferenceRule[Rule]):
    """Definition 5.16 plugged into the saturation engine."""

    name = "HypDR"

    def __init__(self, settings: Optional[RewritingSettings] = None) -> None:
        super().__init__(settings)
        self._index = RulePathIndex()
        #: bound on the backtracking fan-out per consumer, to keep adversarial
        #: inputs from exploding a single inference step.  A branch skipped at
        #: the bound marks the rule :attr:`truncated`, so the rewriting is
        #: reported incomplete.
        self.max_branches = 200_000
        # target atom -> generator rules with a unifiable head, reused across
        # seeds, recursion depths, and saturation rounds (atoms are interned,
        # so recurring targets hit).  Invalidated only when a *generator*
        # joins or leaves the index; the per-call worked_off filter is
        # applied on top of the cached domain.
        self._generator_cache: Dict[Atom, Tuple[Rule, ...]] = {}

    # ------------------------------------------------------------------
    # InferenceRule hooks
    # ------------------------------------------------------------------
    def initial_clauses(self, sigma: Sequence[TGD]) -> Tuple[Rule, ...]:
        return skolemize(head_normalize(sigma), SkolemFactory())

    def register(self, clause: Rule) -> None:
        self._index.add(clause)
        if self._is_generator(clause):
            self._generator_cache.clear()

    def unregister(self, clause: Rule) -> None:
        self._index.remove(clause)
        if self._is_generator(clause):
            self._generator_cache.clear()

    def extract_datalog(self, worked_off: Iterable[Rule]) -> Tuple[Rule, ...]:
        return tuple(rule for rule in worked_off if rule.is_skolem_free)

    def infer(self, clause: Rule, worked_off: Set[Rule]) -> Iterable[Rule]:
        results: List[Rule] = []
        # clause as one of the generator premises τi
        if self._is_generator(clause):
            for partner in self._index.rules_with_unifiable_body_atom(clause.head):
                if partner in worked_off and partner.is_skolem_free:
                    results.extend(
                        self._hyperresolve(partner, worked_off, seed_premise=clause)
                    )
        # clause as the Skolem-free rule τ'
        if clause.is_skolem_free:
            results.extend(self._hyperresolve(clause, worked_off, seed_premise=None))
        return results

    # ------------------------------------------------------------------
    # inference details
    # ------------------------------------------------------------------
    @staticmethod
    def _is_generator(rule: Rule) -> bool:
        return rule.body_is_skolem_free and not rule.head.is_function_free

    def _generators_for(self, atom: Atom, worked_off: Set[Rule]) -> Tuple[Rule, ...]:
        candidates = self._generator_cache.get(atom)
        if candidates is None:
            candidates = tuple(
                rule
                for rule in self._index.rules_with_unifiable_head(atom)
                if self._is_generator(rule)
            )
            self._generator_cache[atom] = candidates
        return tuple(rule for rule in candidates if rule in worked_off)

    def _hyperresolve(
        self,
        consumer: Rule,
        worked_off: Set[Rule],
        seed_premise: Optional[Rule],
    ) -> List[Rule]:
        """Enumerate HypDR conclusions with ``consumer`` as the Skolem-free rule τ'."""
        consumer = consumer.rename_apart("r")
        results: List[Rule] = []
        seen: Set[Rule] = set()
        branch_budget = [self.max_branches]
        for seed_index, seed_atom in enumerate(consumer.body):
            seed_candidates = (
                (seed_premise,)
                if seed_premise is not None
                else self._generators_for(seed_atom, worked_off)
            )
            for candidate in seed_candidates:
                premise = candidate.rename_apart(f"p{seed_index}")
                theta = mgu(premise.head, seed_atom)
                if theta is None:
                    continue
                resolved_bodies = tuple(theta.apply_atoms(premise.body))
                remaining = tuple(
                    theta.apply_atom(atom)
                    for position, atom in enumerate(consumer.body)
                    if position != seed_index
                )
                head = theta.apply_atom(consumer.head)
                self._extend(
                    resolved_bodies,
                    remaining,
                    head,
                    worked_off,
                    results,
                    seen,
                    branch_budget,
                    depth=1,
                )
        return results

    def _extend(
        self,
        resolved_bodies: Tuple[Atom, ...],
        remaining: Tuple[Atom, ...],
        head: Atom,
        worked_off: Set[Rule],
        results: List[Rule],
        seen: Set[Rule],
        branch_budget: List[int],
        depth: int,
    ) -> None:
        """Force-resolve remaining body atoms that mention Skolem terms."""
        if branch_budget[0] <= 0:
            self.truncated = True
            return
        skolem_positions = [
            index
            for index, atom in enumerate(remaining)
            if not atom.is_function_free
        ]
        if not skolem_positions:
            if head.is_function_free or self._head_may_matter(head):
                new_body = dedupe_atoms(resolved_bodies + remaining)
                try:
                    derived = Rule(new_body, head)
                except ValueError:
                    return
                if derived not in seen:
                    seen.add(derived)
                    results.append(derived)
            return
        # resolve the first Skolem-mentioning remaining atom against every
        # eligible generator premise
        position = skolem_positions[0]
        target = remaining[position]
        rest = tuple(atom for index, atom in enumerate(remaining) if index != position)
        for candidate in self._generators_for(target, worked_off):
            branch_budget[0] -= 1
            if branch_budget[0] <= 0:
                self.truncated = True
                return
            premise = candidate.rename_apart(f"d{depth}")
            theta = mgu(premise.head, target)
            if theta is None:
                continue
            self._extend(
                tuple(theta.apply_atoms(resolved_bodies))
                + tuple(theta.apply_atoms(premise.body)),
                tuple(theta.apply_atoms(rest)),
                theta.apply_atom(head),
                worked_off,
                results,
                seen,
                branch_budget,
                depth + 1,
            )

    def _head_may_matter(self, head: Atom) -> bool:
        """Lookahead for heads still mentioning Skolem terms.

        HypDR conclusions always have Skolem-free bodies; a Skolem-containing
        head is only useful if some input GTGD body mentions its relation
        (mirroring the cheap lookahead of Section 6).  When the lookahead
        optimization is disabled such conclusions are kept.
        """
        if not self.settings.use_lookahead:
            return True
        return head.predicate in self.sigma_body_predicates
