"""The Skolem Datalog Rewriting inference rule SkDR (Definition 5.10).

SkDR manipulates rules obtained by Skolemizing the input GTGDs.  It resolves
the head of a rule with a Skolem-free body and a Skolem-containing head
against a single body atom of another guarded rule:

``τ  = β → H``                        (β Skolem-free, H contains a Skolem symbol)
``τ' = A' ∧ β' → H'``                 (A' contains a Skolem symbol, or τ' is
                                       Skolem-free and A' is a guard of τ')

With ``θ`` an MGU of ``H`` and ``A'``, the inference derives
``θ(β) ∧ θ(β') → θ(H')``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..indexing.path_index import RulePathIndex
from ..logic.atoms import Atom
from ..logic.rules import Rule
from ..logic.skolem import SkolemFactory, skolemize
from ..logic.tgd import TGD, head_normalize
from ..unification.mgu import mgu
from .base import InferenceRule, RewritingSettings, dedupe_atoms
from .lookahead import rule_result_is_dead_end


class SkDR(InferenceRule[Rule]):
    """Definition 5.10 plugged into the saturation engine."""

    name = "SkDR"

    def __init__(self, settings: Optional[RewritingSettings] = None) -> None:
        super().__init__(settings)
        self._index = RulePathIndex()
        #: eligible-A' atoms per rule; rules are interned, so renamed-apart
        #: consumers hit this cache on every premise pairing after the first
        self._eligible_cache: dict = {}

    # ------------------------------------------------------------------
    # InferenceRule hooks
    # ------------------------------------------------------------------
    def initial_clauses(self, sigma: Sequence[TGD]) -> Tuple[Rule, ...]:
        return skolemize(head_normalize(sigma), SkolemFactory())

    def register(self, clause: Rule) -> None:
        self._index.add(clause)

    def unregister(self, clause: Rule) -> None:
        self._index.remove(clause)

    def extract_datalog(self, worked_off: Iterable[Rule]) -> Tuple[Rule, ...]:
        return tuple(rule for rule in worked_off if rule.is_skolem_free)

    def infer(self, clause: Rule, worked_off: Set[Rule]) -> Iterable[Rule]:
        results: List[Rule] = []
        # clause as the generator premise τ (Skolem-free body, Skolem head)
        if self._is_generator(clause):
            for partner in self._index.rules_with_unifiable_body_atom(clause.head):
                if partner in worked_off:
                    results.extend(self._combine(clause, partner))
        # clause as the consumer premise τ'
        for atom in self._eligible_atoms(clause):
            for partner in self._index.rules_with_unifiable_head(atom):
                if partner in worked_off and self._is_generator(partner):
                    results.extend(self._combine(partner, clause))
        return results

    # ------------------------------------------------------------------
    # inference details
    # ------------------------------------------------------------------
    @staticmethod
    def _is_generator(rule: Rule) -> bool:
        """A rule eligible as τ: Skolem-free body and Skolem-containing head."""
        return rule.body_is_skolem_free and not rule.head.is_function_free

    @staticmethod
    def _eligible_body_atoms(rule: Rule) -> Tuple[Atom, ...]:
        """Body atoms eligible as A' in τ' (Definition 5.10's second bullet)."""
        if rule.is_skolem_free:
            variables = rule.variables()
            return tuple(
                atom for atom in rule.body if atom.variable_set() >= variables
            )
        return tuple(atom for atom in rule.body if not atom.is_function_free)

    def _eligible_atoms(self, rule: Rule) -> Tuple[Atom, ...]:
        """Cached :meth:`_eligible_body_atoms` (sound because rules are immutable)."""
        cached = self._eligible_cache.get(rule)
        if cached is None:
            cached = self._eligible_cache[rule] = self._eligible_body_atoms(rule)
        return cached

    def _combine(self, generator: Rule, consumer: Rule) -> List[Rule]:
        """All SkDR consequences of resolving the generator head into the consumer body."""
        consumer = consumer.rename_apart("r")
        results: List[Rule] = []
        seen: Set[Rule] = set()
        for atom in self._eligible_atoms(consumer):
            theta = mgu(generator.head, atom)
            if theta is None:
                continue
            remaining = tuple(other for other in consumer.body if other is not atom)
            new_body = dedupe_atoms(
                theta.apply_atoms(generator.body) + theta.apply_atoms(remaining)
            )
            new_head = theta.apply_atom(consumer.head)
            if self.settings.use_lookahead and rule_result_is_dead_end(
                new_head, self.sigma_body_predicates
            ):
                continue
            try:
                derived = Rule(new_body, new_head)
            except ValueError:
                continue
            if derived not in seen:
                seen.add(derived)
                results.append(derived)
        return results
