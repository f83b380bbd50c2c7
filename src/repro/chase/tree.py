"""Chase trees and the two kinds of chase-tree transformations (Section 3).

A *chase tree* consists of a directed tree, a distinguished *recently updated*
vertex, and a function mapping each vertex to a finite set of facts.  A chase
tree is transformed by

* a *chase step* with a GTGD in head-normal form — a full GTGD adds its
  instantiated head to an existing vertex; a non-full GTGD creates a fresh
  child vertex containing the instantiated head together with the facts of
  the parent that are Σ-guarded by that head; or
* a *propagation step* that copies Σ-guarded facts from a vertex to another
  vertex.

The implementation is immutable-by-convention: every transformation returns a
fresh :class:`ChaseTree`, so chase *sequences* can hold all intermediate
trees exactly as the paper's figures do.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..logic.atoms import Atom
from ..logic.instance import fact_guarded_by_set, guarded_subset
from ..logic.substitution import Substitution
from ..logic.terms import Constant, Null, Variable
from ..logic.tgd import TGD


class ChaseError(ValueError):
    """Raised when a chase step's precondition is violated."""


_vertex_counter = itertools.count()


def _fresh_vertex_id() -> int:
    return next(_vertex_counter)


@dataclass(frozen=True)
class ChaseVertex:
    """A vertex of a chase tree (identified by a unique integer id)."""

    vertex_id: int
    parent_id: Optional[int]

    def __str__(self) -> str:
        return f"v{self.vertex_id}"


class ChaseTree:
    """An immutable snapshot of a chase tree."""

    __slots__ = ("_vertices", "_facts", "_children", "recently_updated", "root_id")

    def __init__(
        self,
        vertices: Dict[int, ChaseVertex],
        facts: Dict[int, FrozenSet[Atom]],
        recently_updated: int,
        root_id: int,
    ) -> None:
        self._vertices = dict(vertices)
        self._facts = dict(facts)
        self.recently_updated = recently_updated
        self.root_id = root_id
        children: Dict[int, List[int]] = {vid: [] for vid in vertices}
        for vertex in vertices.values():
            if vertex.parent_id is not None:
                children[vertex.parent_id].append(vertex.vertex_id)
        self._children = children

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def initial(cls, base_facts: Iterable[Atom]) -> "ChaseTree":
        """The initial chase tree ``T0``: a single recently-updated root."""
        root = ChaseVertex(_fresh_vertex_id(), None)
        return cls(
            {root.vertex_id: root},
            {root.vertex_id: frozenset(base_facts)},
            recently_updated=root.vertex_id,
            root_id=root.vertex_id,
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def vertices(self) -> Tuple[ChaseVertex, ...]:
        return tuple(self._vertices.values())

    def vertex(self, vertex_id: int) -> ChaseVertex:
        return self._vertices[vertex_id]

    def facts(self, vertex_id: int) -> FrozenSet[Atom]:
        """The fact set ``T(v)`` of a vertex."""
        return self._facts[vertex_id]

    def root_facts(self) -> FrozenSet[Atom]:
        return self._facts[self.root_id]

    def children(self, vertex_id: int) -> Tuple[int, ...]:
        return tuple(self._children.get(vertex_id, ()))

    def parent(self, vertex_id: int) -> Optional[int]:
        return self._vertices[vertex_id].parent_id

    def all_facts(self) -> FrozenSet[Atom]:
        result = set()
        for facts in self._facts.values():
            result.update(facts)
        return frozenset(result)

    def all_nulls(self) -> FrozenSet[Null]:
        result = set()
        for facts in self._facts.values():
            for fact in facts:
                result.update(fact.nulls())
        return frozenset(result)

    def depth(self) -> int:
        """Height of the tree (root has depth 0)."""

        def vertex_depth(vertex_id: int) -> int:
            parent = self.parent(vertex_id)
            return 0 if parent is None else 1 + vertex_depth(parent)

        return max(vertex_depth(vid) for vid in self._vertices)

    def path_between(self, source: int, target: int) -> Tuple[int, ...]:
        """The unique path between two vertices (inclusive of both endpoints)."""

        def ancestors(vertex_id: int) -> List[int]:
            chain = [vertex_id]
            while self.parent(chain[-1]) is not None:
                chain.append(self.parent(chain[-1]))
            return chain

        up_source = ancestors(source)
        up_target = ancestors(target)
        source_set = {vid: idx for idx, vid in enumerate(up_source)}
        for idx_target, vid in enumerate(up_target):
            if vid in source_set:
                idx_source = source_set[vid]
                return tuple(up_source[: idx_source + 1]) + tuple(
                    reversed(up_target[:idx_target])
                )
        raise ChaseError("vertices are not connected")

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def _with_updated_vertex(
        self, vertex_id: int, new_facts: FrozenSet[Atom]
    ) -> "ChaseTree":
        facts = dict(self._facts)
        facts[vertex_id] = new_facts
        return ChaseTree(self._vertices, facts, vertex_id, self.root_id)

    def apply_full_step(
        self, vertex_id: int, tgd: TGD, substitution: Substitution
    ) -> "ChaseTree":
        """Chase step with a full GTGD in head-normal form at the given vertex."""
        if not tgd.is_full or len(tgd.head) != 1:
            raise ChaseError("full chase steps require a full TGD in head-normal form")
        body_image = substitution.apply_atoms(tgd.body)
        if not set(body_image) <= self._facts[vertex_id]:
            raise ChaseError(
                "chase step precondition violated: instantiated body not in vertex"
            )
        head_fact = substitution.apply_atom(tgd.head[0])
        if not head_fact.is_ground:
            raise ChaseError("substitution does not ground the head of the full TGD")
        return self._with_updated_vertex(
            vertex_id, self._facts[vertex_id] | {head_fact}
        )

    def apply_non_full_step(
        self,
        vertex_id: int,
        tgd: TGD,
        substitution: Substitution,
        sigma_constants: FrozenSet[Constant],
        null_factory,
    ) -> Tuple["ChaseTree", int]:
        """Chase step with a non-full GTGD: create a fresh child of the vertex.

        ``null_factory`` is a callable returning fresh labeled nulls; the
        substitution is extended to map each existentially quantified variable
        to a fresh null.  Returns the new tree and the id of the new child.
        """
        if tgd.is_full:
            raise ChaseError("non-full chase steps require a non-full TGD")
        body_image = substitution.apply_atoms(tgd.body)
        if not set(body_image) <= self._facts[vertex_id]:
            raise ChaseError(
                "chase step precondition violated: instantiated body not in vertex"
            )
        extension: Dict[Variable, Null] = {
            var: null_factory() for var in tgd.existential_variables
        }
        extended = Substitution({**dict(substitution.items()), **extension})
        head_facts = frozenset(extended.apply_atoms(tgd.head))
        inherited = guarded_subset(
            self._facts[vertex_id], head_facts, sigma_constants
        )
        child = ChaseVertex(_fresh_vertex_id(), vertex_id)
        vertices = dict(self._vertices)
        vertices[child.vertex_id] = child
        facts = dict(self._facts)
        facts[child.vertex_id] = head_facts | frozenset(inherited)
        tree = ChaseTree(vertices, facts, child.vertex_id, self.root_id)
        return tree, child.vertex_id

    def apply_propagation_step(
        self,
        source_id: int,
        target_id: int,
        propagated: Iterable[Atom],
        sigma_constants: FrozenSet[Constant],
    ) -> "ChaseTree":
        """Propagation step: copy Σ-guarded facts from ``source`` to ``target``."""
        propagated = frozenset(propagated)
        if not propagated:
            raise ChaseError("a propagation step must copy a nonempty set of facts")
        source_facts = self._facts[source_id]
        target_facts = self._facts[target_id]
        for fact in propagated:
            if fact not in source_facts:
                raise ChaseError(f"fact {fact} is not present in the source vertex")
            if not fact_guarded_by_set(fact, target_facts, sigma_constants):
                raise ChaseError(
                    f"fact {fact} is not Σ-guarded by the target vertex"
                )
        facts = dict(self._facts)
        facts[target_id] = target_facts | propagated
        return ChaseTree(self._vertices, facts, target_id, self.root_id)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"ChaseTree(vertices={len(self._vertices)}, "
            f"recently_updated=v{self.recently_updated})"
        )

    def pretty(self) -> str:
        """Human-readable rendering of the tree (one line per vertex)."""
        lines: List[str] = []

        def render(vertex_id: int, indent: int) -> None:
            marker = "*" if vertex_id == self.recently_updated else " "
            facts = ", ".join(sorted(str(fact) for fact in self._facts[vertex_id]))
            lines.append(f"{'  ' * indent}{marker} v{vertex_id}: {{{facts}}}")
            for child in self.children(vertex_id):
                render(child, indent + 1)

        render(self.root_id, 0)
        return "\n".join(lines)
