"""Feature-vector subsumption indexing (Section 6).

A TGD ``τ1`` can subsume ``τ2`` only if the relations of ``τ1``'s body are a
subset of those of ``τ2``'s body and the relations of ``τ1``'s head are a
superset of those of ``τ2``'s head (and analogously for rules, whose heads
are single atoms).  The index therefore stores each TGD/rule under the set of
relation symbols of its body and retrieves

* *subsuming candidates* of a query item: stored items whose body-relation
  set is a **subset** of the query's, post-filtered by the head condition;
* *subsumed candidates* of a query item: stored items whose body-relation set
  is a **superset** of the query's, again post-filtered on heads.

The actual (exact or approximate) subsumption test is performed by the caller
on the retrieved candidates.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Generic, Iterable, Iterator, Optional, Tuple, TypeVar, Union

from ..logic.atoms import Predicate
from ..logic.rules import Rule
from ..logic.tgd import TGD
from .set_trie import SetTrie

Item = TypeVar("Item", TGD, Rule)
Clause = Union[TGD, Rule]


def _body_predicates(item: Clause) -> FrozenSet[Predicate]:
    return frozenset(atom.predicate for atom in item.body)


def _head_predicates(item: Clause) -> FrozenSet[Predicate]:
    if isinstance(item, TGD):
        return frozenset(atom.predicate for atom in item.head)
    return frozenset((item.head.predicate,))


class SubsumptionIndex(Generic[Item]):
    """Retrieves subsumption candidates among the stored TGDs/rules."""

    def __init__(self) -> None:
        self._trie: SetTrie = SetTrie()
        self._features: Dict[Clause, Tuple[frozenset, FrozenSet[Predicate], FrozenSet[Predicate]]] = {}
        #: one-slot memo for the clause currently being queried, so the
        #: forward check, backward check, and add of one admission compute
        #: its features once without pinning discarded clauses forever
        self._last_query: Optional[Tuple[Clause, Tuple]] = None

    # ------------------------------------------------------------------
    # feature computation
    # ------------------------------------------------------------------
    def _body_key(self, predicates: FrozenSet[Predicate]) -> frozenset:
        return frozenset((pred.name, pred.arity) for pred in predicates)

    def _features_of(self, item: Clause, store: bool = False):
        """Feature tuple of ``item``; cached only for stored items.

        Query clauses (forward-subsumption probes that get discarded) must
        not populate the cache, or the index would pin every clause ever
        queried for the lifetime of the run.
        """
        cached = self._features.get(item)
        if cached is not None:
            return cached
        last = self._last_query
        if last is not None and last[0] is item:
            cached = last[1]
        else:
            body_preds = _body_predicates(item)
            head_preds = _head_predicates(item)
            cached = (self._body_key(body_preds), body_preds, head_preds)
            self._last_query = (item, cached)
        if store:
            self._features[item] = cached
        return cached

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, item: Item) -> None:
        body_key, _, _ = self._features_of(item, store=True)
        self._trie.insert(body_key, item)

    def remove(self, item: Item) -> None:
        features = self._features.get(item)
        if features is None:
            return
        self._trie.remove(features[0], item)
        # evict the feature cache entry so long saturation runs with heavy
        # backward subsumption do not accumulate features of dead clauses
        del self._features[item]

    def __len__(self) -> int:
        return len(self._trie)

    def __contains__(self, item: Item) -> bool:
        features = self._features.get(item)
        if features is None:
            return False
        return item in self._trie.exact(features[0])

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def subsuming_candidates(self, item: Clause) -> Iterator[Item]:
        """Stored items that could subsume ``item`` (necessary condition only)."""
        body_key, body_preds, head_preds = self._features_of(item)
        for candidate in self._trie.subsets_of(body_key):
            _, cand_body, cand_head = self._features_of(candidate)
            if not cand_body <= body_preds:
                continue
            if not cand_head >= head_preds:
                continue
            yield candidate

    def subsumed_candidates(self, item: Clause) -> Iterator[Item]:
        """Stored items that ``item`` could subsume (necessary condition only)."""
        body_key, body_preds, head_preds = self._features_of(item)
        for candidate in self._trie.supersets_of(body_key):
            _, cand_body, cand_head = self._features_of(candidate)
            if not body_preds <= cand_body:
                continue
            if not head_preds >= cand_head:
                continue
            yield candidate

    def items(self) -> Iterator[Item]:
        yield from self._trie.values()
