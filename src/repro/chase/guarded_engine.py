"""A decision procedure for GTGD fact entailment based on type closures.

The tree-like chase (Section 3) arranges derived facts into a tree whose
vertices hold *types*: finite sets of facts over at most ``hwidth(Σ)`` terms
plus the constants of Σ.  The facts derivable at a vertex depend only on the
vertex's initial type, which yields a terminating decision procedure:

* ``closure(S)`` is the least set containing ``S`` that is closed under
  (a) applications of full GTGDs and (b) the *loop rule* — for every non-full
  GTGD trigger, build the child's initial type, recursively close it, and copy
  back every derived fact that does not mention the fresh nulls.

Because types are canonicalized (labeled nulls renamed by first occurrence),
the number of distinct types is finite, so the memoized global fixpoint
terminates.  This engine is the correctness oracle against which the Datalog
rewriting algorithms are validated in the test suite; it is exponential in
``Σ`` and therefore only intended for small inputs.

:class:`GuardedChaseReasoner` computes the fixpoint incrementally: a
*dirty-type worklist* drives the global fixpoint, every type tracks a
per-type delta (facts whose consequences have not been explored yet), and
full-TGD / trigger matches are computed against the delta pivot instead of
the whole type.  Cross-type dependencies are recorded as *edges* (child
type → parent type, with the null translation and the trigger's fresh
nulls), so when a child's closure grows only its registered parents are
re-queued instead of the entire tree of types being re-walked once per
global round.  Types are processed directly in their canonical null naming,
so each type is canonicalized once per trigger firing (with per-atom
rendered strings cached on the interned atoms) and the canonical/original
inverse renaming is built exactly once per canonicalization.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..logic.atoms import Atom, Predicate
from ..logic.instance import Instance, guarded_subset
from ..logic.substitution import Substitution
from ..logic.terms import Constant, Null, Term
from ..logic.tgd import TGD, head_normalize, program_constants, split_full_non_full
from ..unification.matching import match_atom
from ..unification.solver import solve_match

TypeKey = FrozenSet[Atom]

#: child-to-parent dependency edge: (parent key, canonical-to-parent null
#: translation, child-canonical nulls blocked from export — the trigger's
#: fresh nulls)
_Edge = Tuple[TypeKey, Dict[Null, Null], FrozenSet[Null]]


def _canonicalize(
    facts: FrozenSet[Atom],
) -> Tuple[TypeKey, Dict[Null, Null], Dict[Null, Null]]:
    """Rename labeled nulls by first occurrence in a deterministic fact order.

    Returns ``(canonical key, mapping, inverse)`` where ``mapping`` sends the
    original nulls to canonical ones and ``inverse`` is its inverse — built
    here, once, instead of by every caller that needs to translate back.
    Facts are ordered by their rendered string, which is cached on the
    interned atom, so repeated canonicalizations of recurring facts do not
    re-render them.
    """
    ordered = sorted(facts, key=str)
    mapping: Dict[Null, Null] = {}

    def rename_term(term: Term) -> Term:
        if isinstance(term, Null):
            renamed = mapping.get(term)
            if renamed is None:
                renamed = Null(len(mapping))
                mapping[term] = renamed
            return renamed
        return term

    canonical = frozenset(
        Atom(fact.predicate, tuple(rename_term(arg) for arg in fact.args))
        for fact in ordered
    )
    inverse = {renamed: original for original, renamed in mapping.items()}
    return canonical, mapping, inverse


def _rename_facts(
    facts: Iterable[Atom], renaming: Dict[Null, Null]
) -> FrozenSet[Atom]:
    def rename_term(term: Term) -> Term:
        if isinstance(term, Null):
            return renaming.get(term, term)
        return term

    return frozenset(
        Atom(fact.predicate, tuple(rename_term(arg) for arg in fact.args))
        for fact in facts
    )


def _rename_fact(fact: Atom, renaming: Dict[Null, Null]) -> Atom:
    if not renaming or fact.null_set().isdisjoint(renaming.keys()):
        return fact
    return Atom(
        fact.predicate,
        tuple(
            renaming.get(arg, arg) if isinstance(arg, Null) else arg
            for arg in fact.args
        ),
    )


class _StoredTrigger:
    """One fired non-full trigger, remembered for delta-pivoted re-firing.

    ``inherited`` accumulates the Σ-guarded subset of the parent closure seen
    so far: the full parent scan happens once at the first firing, and every
    later re-fire only classifies the parent's *delta*.  Because every fact
    ever committed to the parent closure passes through exactly one delta,
    and guardedness of a fact depends only on the fact and the trigger's head
    terms, the accumulated set always equals what a fresh scan of the whole
    closure would return.
    """

    __slots__ = ("head_facts", "fresh_nulls", "inherited")

    def __init__(
        self,
        head_facts: FrozenSet[Atom],
        fresh_nulls: FrozenSet[Null],
        inherited: Set[Atom],
    ) -> None:
        self.head_facts = head_facts
        self.fresh_nulls = fresh_nulls
        self.inherited = inherited


class GuardedChaseReasoner:
    """Decides fact entailment for a fixed set of GTGDs (worklist engine)."""

    def __init__(self, tgds: Iterable[TGD], max_types: int = 50_000) -> None:
        normalized = head_normalize(tgds)
        for tgd in normalized:
            if not tgd.is_guarded:
                raise ValueError(f"TGD is not guarded: {tgd}")
        self.tgds: Tuple[TGD, ...] = normalized
        self.full_tgds, self.non_full_tgds = split_full_non_full(normalized)
        self.sigma_constants: FrozenSet[Constant] = program_constants(normalized)
        self.max_types = max_types
        self._null_counter = 0
        # per-saturate state (see _reset)
        self._cache: Dict[TypeKey, Set[Atom]] = {}
        # per-type predicate buckets, kept in sync with _cache so a worklist
        # pop does not re-bucket the whole closure to serve a small delta
        self._buckets: Dict[TypeKey, Dict[Predicate, List[Atom]]] = {}
        self._pending: Dict[TypeKey, Set[Atom]] = {}
        self._edges: Dict[TypeKey, List[_Edge]] = {}
        self._edge_seen: Set[Tuple] = set()
        self._triggers: Dict[TypeKey, List[_StoredTrigger]] = {}
        self._dirty: List[TypeKey] = []
        self._dirty_set: Set[TypeKey] = set()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def saturate(self, instance: Instance | Iterable[Atom]) -> FrozenSet[Atom]:
        """All facts derivable at the root vertex for the given base instance."""
        root_facts = frozenset(instance)
        self._reset()
        root_key, _mapping, inverse = _canonicalize(root_facts)
        self._ensure_type(root_key)
        self._drain()
        return _rename_facts(self._cache[root_key], inverse)

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
    # worklist fixpoint
    # ------------------------------------------------------------------
    def _reset(self) -> None:
        self._cache = {}
        self._buckets = {}
        self._pending = {}
        self._edges = {}
        self._edge_seen = set()
        self._triggers = {}
        self._dirty = []
        self._dirty_set = set()

    def _fresh_null(self) -> Null:
        self._null_counter += 1
        return Null(1_000_000 + self._null_counter)

    def _mark_dirty(self, key: TypeKey) -> None:
        if key not in self._dirty_set:
            self._dirty_set.add(key)
            self._dirty.append(key)

    def _ensure_type(self, key: TypeKey) -> None:
        """Register a (canonical) type unless it is already known.

        The invariant maintained everywhere: ``pending[key]`` is the subset
        of ``cache[key]`` whose consequences have not been explored yet —
        facts are committed to the closure first and queued as delta second.
        """
        if key in self._cache:
            return
        self._cache[key] = set(key)
        buckets: Dict[Predicate, List[Atom]] = {}
        for fact in key:
            buckets.setdefault(fact.predicate, []).append(fact)
        self._buckets[key] = buckets
        self._pending[key] = set(key)
        self._mark_dirty(key)
        if len(self._cache) > self.max_types:
            raise RuntimeError(
                "type limit exceeded; the oracle is intended for small inputs only"
            )

    def _drain(self) -> None:
        while self._dirty:
            key = self._dirty.pop()
            self._dirty_set.discard(key)
            self._process(key)

    def _process(self, key: TypeKey) -> None:
        """Explore a type's pending delta to a local fixpoint, semi-naively.

        Every inner round matches each TGD body with one atom pivoted on the
        round's delta and the rest on the full type, so rule applications
        whose body facts were all explored earlier are never re-enumerated.
        New facts become the next round's delta; everything derived here is
        propagated to the registered parent types afterwards.
        """
        delta = self._pending.pop(key, None)
        if not delta:
            return
        current = self._cache[key]
        current_by_pred = self._buckets[key]
        added_total: Set[Atom] = set()
        while delta:
            delta_by_pred: Dict[Predicate, List[Atom]] = {}
            for fact in delta:
                delta_by_pred.setdefault(fact.predicate, []).append(fact)
            new: Set[Atom] = set()
            # re-fire stored triggers whose inheritable part grew: a child
            # type is a function of the whole parent closure (the Σ-guarded
            # subset is copied in), not just of the trigger's body match, so
            # parent growth can enlarge the child even when no body atom is
            # re-matched.  Only the *delta* is classified against the guard —
            # the trigger carries its accumulated inheritable set, so a
            # re-fire never re-scans the full closure.
            for trigger in tuple(self._triggers.get(key, ())):
                grown = [
                    fact
                    for fact in guarded_subset(
                        delta, trigger.head_facts, self.sigma_constants
                    )
                    if fact not in trigger.inherited
                ]
                if grown:
                    trigger.inherited.update(grown)
                    self._build_child(
                        key,
                        trigger.head_facts,
                        trigger.fresh_nulls,
                        trigger.inherited,
                        current,
                        new,
                    )
            # (a) full GTGDs applied inside the vertex, delta-pivoted
            for tgd in self.full_tgds:
                for substitution in self._delta_matches(
                    tgd.body, current_by_pred, delta_by_pred
                ):
                    head_fact = substitution.apply_atom(tgd.head[0])
                    if head_fact not in current and head_fact not in new:
                        new.add(head_fact)
            # (b) loops through children created by non-full GTGDs
            for tgd in self.non_full_tgds:
                for substitution in self._delta_matches(
                    tgd.body, current_by_pred, delta_by_pred
                ):
                    self._fire_trigger(key, tgd, substitution, current, new)
            for fact in new:
                current.add(fact)
                current_by_pred.setdefault(fact.predicate, []).append(fact)
            added_total |= new
            delta = new
        if added_total:
            self._propagate(key, added_total)

    def _fire_trigger(
        self,
        key: TypeKey,
        tgd: TGD,
        substitution: Substitution,
        current: Set[Atom],
        new: Set[Atom],
    ) -> None:
        """Instantiate one non-full trigger: mint its fresh nulls, remember it
        for re-firing on parent growth, and build its child type.  The one
        full-closure guard scan happens here; re-fires extend the trigger's
        accumulated inheritable set from deltas only."""
        extension = {var: self._fresh_null() for var in tgd.existential_variables}
        extended = Substitution({**dict(substitution.items()), **extension})
        head_facts = frozenset(extended.apply_atoms(tgd.head))
        fresh_nulls = frozenset(extension.values())
        inherited = set(guarded_subset(current, head_facts, self.sigma_constants))
        trigger = _StoredTrigger(head_facts, fresh_nulls, inherited)
        self._triggers.setdefault(key, []).append(trigger)
        self._build_child(key, head_facts, fresh_nulls, inherited, current, new)

    def _build_child(
        self,
        key: TypeKey,
        head_facts: FrozenSet[Atom],
        fresh_nulls: FrozenSet[Null],
        inherited: Set[Atom],
        current: Set[Atom],
        new: Set[Atom],
    ) -> None:
        """Build (or reuse) a trigger's child type from its head facts plus
        the inheritable parent facts, and import the exportable part of the
        child's closure into ``new``."""
        child_type = head_facts | frozenset(inherited)
        child_key, mapping, inverse = _canonicalize(child_type)
        self._ensure_type(child_key)
        # the trigger's fresh nulls, in the child's canonical naming: facts
        # mentioning them never leave the child vertex
        blocked = frozenset(mapping[null] for null in fresh_nulls)
        token = (
            child_key,
            key,
            tuple(sorted(inverse.items(), key=lambda item: item[0].label)),
            blocked,
        )
        if token not in self._edge_seen:
            self._edge_seen.add(token)
            self._edges.setdefault(child_key, []).append((key, inverse, blocked))
        for fact in self._cache[child_key]:
            # null_set() is cached on the interned atom, so this per-fact
            # freshness test is one set intersection instead of re-walking
            # the argument terms
            if not blocked.isdisjoint(fact.null_set()):
                continue
            translated = _rename_fact(fact, inverse)
            if translated not in current and translated not in new:
                new.add(translated)

    def _propagate(self, key: TypeKey, added: Set[Atom]) -> None:
        """Push a type's closure growth through the registered parent edges.

        Transitive: a fact injected into a parent is immediately forwarded to
        the grandparents (filtered and translated per edge), because the
        parent's own delta processing only propagates facts *derived* there.
        Each queue step strictly grows some type's closure, so the walk
        terminates even on cyclic edge graphs.
        """
        queue: List[Tuple[TypeKey, Iterable[Atom]]] = [(key, added)]
        while queue:
            child_key, batch = queue.pop()
            for parent_key, inverse, blocked in self._edges.get(child_key, ()):
                parent_closure = self._cache[parent_key]
                parent_buckets = self._buckets[parent_key]
                injected: List[Atom] = []
                for fact in batch:
                    if not blocked.isdisjoint(fact.null_set()):
                        continue
                    translated = _rename_fact(fact, inverse)
                    if translated not in parent_closure:
                        parent_closure.add(translated)
                        parent_buckets.setdefault(
                            translated.predicate, []
                        ).append(translated)
                        injected.append(translated)
                if injected:
                    self._pending.setdefault(parent_key, set()).update(injected)
                    self._mark_dirty(parent_key)
                    queue.append((parent_key, injected))

    # ------------------------------------------------------------------
    # delta-pivoted body matching
    # ------------------------------------------------------------------
    @staticmethod
    def _delta_matches(
        body: Tuple[Atom, ...],
        current_by_pred: Dict[Predicate, List[Atom]],
        delta_by_pred: Dict[Predicate, List[Atom]],
    ) -> Iterable[Substitution]:
        """Matches of ``body`` into the type using at least one delta fact.

        For every body position whose predicate received delta facts, the
        pivot atom is bound to each delta fact and the remaining atoms are
        solved against the full type.  A match whose image contains several
        delta facts is found once per such position; the duplicates are
        collapsed here so triggers fire (and fresh nulls are minted) exactly
        once per distinct substitution and round.
        """
        # a single-atom body cannot re-find a match through a second pivot,
        # so the dedupe set is only kept for wider bodies
        seen: Optional[Set[Substitution]] = set() if len(body) > 1 else None
        for pivot, pivot_atom in enumerate(body):
            bucket = delta_by_pred.get(pivot_atom.predicate)
            if not bucket:
                continue
            rest = body[:pivot] + body[pivot + 1 :]
            for fact in bucket:
                base = match_atom(pivot_atom, fact)
                if base is None:
                    continue
                for substitution in solve_match(rest, current_by_pred, base=base):
                    if seen is not None:
                        if substitution in seen:
                            continue
                        seen.add(substitution)
                    yield substitution
