"""Tree-like chase sequences, one-pass sequences, and loops (Section 4).

A *tree-like chase sequence* for a base instance ``I`` and GTGDs ``Σ`` in
head-normal form is a sequence of chase trees ``T0, ..., Tn`` where ``T0``
has a single root holding ``I`` and each ``Ti`` follows from ``Ti-1`` by a
chase or propagation step.  The sequence is a *chase proof* of every fact
occurring in ``Tn``.

Definition 4.1 singles out *one-pass* sequences, and Definition 4.4
decomposes them into *loops*: subsequences that enter a fresh child with a
non-full step, work inside the subtree, and finally propagate exactly one
output fact back to the vertex where the loop started.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from ..logic.atoms import Atom
from ..logic.instance import fact_guarded_by_set
from ..logic.substitution import Substitution
from ..logic.terms import Constant
from ..logic.tgd import TGD
from .tree import ChaseTree


@dataclass(frozen=True)
class ChaseStepRecord:
    """Metadata describing how ``T_i`` was obtained from ``T_{i-1}``."""

    kind: str  # "full", "non_full", or "propagation"
    vertex_id: int
    tgd: Optional[TGD] = None
    substitution: Optional[Substitution] = None
    created_vertex_id: Optional[int] = None
    propagated: Tuple[Atom, ...] = ()
    target_vertex_id: Optional[int] = None

    @property
    def is_propagation(self) -> bool:
        return self.kind == "propagation"


@dataclass(frozen=True)
class Loop:
    """A loop at a vertex (Definition 4.4): indices ``i < j`` into the sequence."""

    start_index: int
    end_index: int
    vertex_id: int
    output_fact: Atom

    @property
    def length(self) -> int:
        return self.end_index - self.start_index


class ChaseSequence:
    """A recorded tree-like chase sequence together with its step metadata."""

    def __init__(self, initial_tree: ChaseTree) -> None:
        self._trees: List[ChaseTree] = [initial_tree]
        self._steps: List[ChaseStepRecord] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, tree: ChaseTree, step: ChaseStepRecord) -> None:
        """Append a tree and the step that produced it."""
        self._trees.append(tree)
        self._steps.append(step)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def trees(self) -> Tuple[ChaseTree, ...]:
        return tuple(self._trees)

    @property
    def steps(self) -> Tuple[ChaseStepRecord, ...]:
        return tuple(self._steps)

    def __len__(self) -> int:
        return len(self._trees)

    @property
    def final_tree(self) -> ChaseTree:
        return self._trees[-1]

    def proves(self, fact: Atom) -> bool:
        """``True`` if the fact occurs in some vertex of the final tree."""
        return fact in self.final_tree.all_facts()

    def proves_at_root(self, fact: Atom) -> bool:
        """``True`` if the fact occurs at the root of the final tree."""
        return fact in self.final_tree.root_facts()

    # ------------------------------------------------------------------
    # one-pass property (Definition 4.1)
    # ------------------------------------------------------------------
    def is_one_pass(self, sigma_constants: FrozenSet[Constant]) -> bool:
        """Check whether the recorded sequence satisfies Definition 4.1.

        Each step must be applied to the recently updated vertex of the
        previous tree; propagation steps must copy exactly one fact to the
        parent; and a chase step is allowed only when no propagation step to
        the parent is applicable.
        """
        for index, step in enumerate(self._steps):
            previous = self._trees[index]
            focus = previous.recently_updated
            if step.is_propagation:
                if step.vertex_id != focus:
                    return False
                if step.target_vertex_id != previous.parent(focus):
                    return False
                if len(step.propagated) != 1:
                    return False
            else:
                if step.vertex_id != focus:
                    return False
                if self._propagation_to_parent_applicable(
                    previous, focus, sigma_constants
                ):
                    return False
        return True

    @staticmethod
    def _propagation_to_parent_applicable(
        tree: ChaseTree, vertex_id: int, sigma_constants: FrozenSet[Constant]
    ) -> bool:
        parent_id = tree.parent(vertex_id)
        if parent_id is None:
            return False
        parent_facts = tree.facts(parent_id)
        for fact in tree.facts(vertex_id):
            if fact in parent_facts:
                continue
            if fact_guarded_by_set(fact, parent_facts, sigma_constants):
                return True
        return False

    # ------------------------------------------------------------------
    # loops (Definition 4.4)
    # ------------------------------------------------------------------
    def loops(self) -> Tuple[Loop, ...]:
        """Extract all loops of the sequence.

        A loop at vertex ``v`` is a subsequence ``T_i, ..., T_j`` such that
        ``T_{i+1}`` is obtained by a non-full chase step applied at ``v``,
        ``T_j`` is obtained by a propagation step copying the output fact, and
        ``v`` is the recently updated vertex of both ``T_i`` and ``T_j``.
        """
        loops: List[Loop] = []
        for start_pos, start_step in enumerate(self._steps):
            if start_step.kind != "non_full":
                continue
            start_vertex = start_step.vertex_id
            start_index = start_pos  # T_i is the tree *before* the step
            if self._trees[start_index].recently_updated != start_vertex:
                continue
            for end_pos in range(start_pos + 1, len(self._steps)):
                end_step = self._steps[end_pos]
                if (
                    end_step.is_propagation
                    and end_step.target_vertex_id == start_vertex
                    and len(end_step.propagated) == 1
                ):
                    end_index = end_pos + 1  # T_j is the tree *after* the step
                    loops.append(
                        Loop(
                            start_index=start_index,
                            end_index=end_index,
                            vertex_id=start_vertex,
                            output_fact=end_step.propagated[0],
                        )
                    )
                    break
        return tuple(loops)

    def loops_at_root(self) -> Tuple[Loop, ...]:
        root_id = self._trees[0].root_id
        return tuple(loop for loop in self.loops() if loop.vertex_id == root_id)

    def loop_input_facts(self, loop: Loop) -> FrozenSet[Atom]:
        """The input ``T_i(v)`` of a loop."""
        return self._trees[loop.start_index].facts(loop.vertex_id)
