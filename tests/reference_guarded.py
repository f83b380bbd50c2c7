"""The guarded-chase type-closure engine before its worklist rewrite.

:class:`ReferenceGuardedReasoner` is the recursive engine that
:class:`repro.chase.guarded_engine.GuardedChaseReasoner` replaced, kept as
an executable specification: the differential tests check the worklist
engine against it.  It reuses the engine module's type canonicalization
helpers.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set, Tuple

from repro.chase.guarded_engine import TypeKey, _canonicalize, _rename_facts
from repro.logic.atoms import Atom
from repro.logic.instance import Instance, guarded_subset
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Null
from repro.logic.tgd import TGD, head_normalize, program_constants, split_full_non_full
from repro.unification.solver import solve_match


class ReferenceGuardedReasoner:
    """The recursive type-closure engine (see the module docstring).

    Naive in two ways the worklist engine is not: every global round
    re-closes every type reachable from the root from scratch (a whole-tree
    re-walk), and every closure round recomputes every TGD's matches against
    the entire type.
    """

    def __init__(self, tgds: Iterable[TGD], max_types: int = 50_000) -> None:
        normalized = head_normalize(tgds)
        for tgd in normalized:
            if not tgd.is_guarded:
                raise ValueError(f"TGD is not guarded: {tgd}")
        self.tgds: Tuple[TGD, ...] = normalized
        self.full_tgds, self.non_full_tgds = split_full_non_full(normalized)
        self.sigma_constants: FrozenSet[Constant] = program_constants(normalized)
        self.max_types = max_types
        self._cache: Dict[TypeKey, Set[Atom]] = {}
        self._null_counter = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def saturate(self, instance: Instance | Iterable[Atom]) -> FrozenSet[Atom]:
        """All facts derivable at the root vertex for the given base instance."""
        root_facts = frozenset(instance)
        self._cache = {}
        changed = True
        while changed:
            self._round_changed = False
            self._visited_this_round: Set[TypeKey] = set()
            self._closure(root_facts)
            changed = self._round_changed
        return self._lookup(root_facts)

    def entailed_base_facts(
        self, instance: Instance | Iterable[Atom]
    ) -> FrozenSet[Atom]:
        """The base facts entailed by the instance and the GTGDs."""
        return frozenset(
            fact for fact in self.saturate(instance) if fact.is_base_fact
        )

    def entails(self, instance: Instance | Iterable[Atom], fact: Atom) -> bool:
        """Decide ``I, Σ |= F`` for a base fact ``F``."""
        if not fact.is_base_fact:
            raise ValueError("entailment is defined for base facts only")
        return fact in self.saturate(instance)

    # ------------------------------------------------------------------
    # canonicalization of types
    # ------------------------------------------------------------------
    @staticmethod
    def _canonical_key(facts: FrozenSet[Atom]) -> Tuple[TypeKey, Dict[Null, Null]]:
        """Rename labeled nulls canonically; return the key and the renaming."""
        key, mapping, _inverse = _canonicalize(facts)
        return key, mapping

    @staticmethod
    def _apply_null_renaming(
        facts: Iterable[Atom], renaming: Dict[Null, Null]
    ) -> FrozenSet[Atom]:
        return _rename_facts(facts, renaming)

    def _lookup(self, facts: FrozenSet[Atom]) -> FrozenSet[Atom]:
        key, mapping = self._canonical_key(facts)
        closure = self._cache.get(key, set(key))
        inverse = {canonical: original for original, canonical in mapping.items()}
        return self._apply_null_renaming(closure, inverse)

    # ------------------------------------------------------------------
    # the fixpoint
    # ------------------------------------------------------------------
    def _fresh_null(self) -> Null:
        self._null_counter += 1
        return Null(1_000_000 + self._null_counter)

    def _closure(self, facts: FrozenSet[Atom]) -> FrozenSet[Atom]:
        """Compute (one round of) the closure of a type, using cached children."""
        key, mapping = self._canonical_key(facts)
        inverse = {canonical: original for original, canonical in mapping.items()}
        if key in self._visited_this_round:
            closure = self._cache.get(key, set(key))
            return self._apply_null_renaming(closure, inverse)
        self._visited_this_round.add(key)
        if len(self._cache) > self.max_types:
            raise RuntimeError(
                "type limit exceeded; the oracle is intended for small inputs only"
            )

        cached = self._cache.get(key)
        if cached is None:
            current: Set[Atom] = set(facts)
        else:
            # cached closures are stored in canonical null naming; translate
            # them back into the caller's naming before extending them
            current = set(self._apply_null_renaming(cached, inverse))
        changed = True
        while changed:
            changed = False
            # (a) full GTGDs applied inside the vertex
            for tgd in self.full_tgds:
                for substitution in self._body_matches(tgd.body, current):
                    head_fact = substitution.apply_atom(tgd.head[0])
                    if head_fact not in current:
                        current.add(head_fact)
                        changed = True
            # (b) loops through children created by non-full GTGDs
            for tgd in self.non_full_tgds:
                for substitution in self._body_matches(tgd.body, current):
                    extension = {
                        var: self._fresh_null() for var in tgd.existential_variables
                    }
                    extended = Substitution(
                        {**dict(substitution.items()), **extension}
                    )
                    head_facts = frozenset(extended.apply_atoms(tgd.head))
                    fresh_nulls = frozenset(extension.values())
                    inherited = guarded_subset(
                        current, head_facts, self.sigma_constants
                    )
                    child_type = head_facts | frozenset(inherited)
                    child_closure = self._closure(child_type)
                    for fact in child_closure:
                        # null_set() is cached on the interned atom, so this
                        # per-fact freshness test is one set intersection
                        # instead of re-walking the argument terms
                        if not fresh_nulls.isdisjoint(fact.null_set()):
                            continue
                        if fact not in current:
                            current.add(fact)
                            changed = True

        canonical_closure = self._apply_null_renaming(current, mapping)
        previous = self._cache.get(key)
        if previous is None or not canonical_closure <= previous:
            merged = set(previous or ()) | set(canonical_closure)
            self._cache[key] = merged
            self._round_changed = True
        return frozenset(current)

    # ------------------------------------------------------------------
    # body matching over a fact set
    # ------------------------------------------------------------------
    @staticmethod
    def _body_matches(
        body: Tuple[Atom, ...], facts: Set[Atom]
    ) -> Iterable[Substitution]:
        """All body matches into the current fact set, via the shared solver.

        The solver snapshots the fact set on entry, so facts added while a
        fixpoint round pulls matches are seen by the next round.
        """
        return solve_match(body, facts)
