"""The chase as reference semantics: chase trees, sequences and loops, the
guarded-chase decision procedure that the rewritings are checked against,
and the depth-bounded Skolem chase."""

from .guarded_engine import GuardedChaseReasoner
from .oracle import (
    certain_base_facts,
    entails,
    oracle_agrees,
)
from .sequence import ChaseSequence, ChaseStepRecord, Loop
from .skolem_chase import (
    SkolemChase,
    SkolemChaseResult,
    skolem_chase_base_facts,
    skolem_chase_entails,
)
from .tree import ChaseError, ChaseTree, ChaseVertex

__all__ = [
    "ChaseError",
    "ChaseSequence",
    "ChaseStepRecord",
    "ChaseTree",
    "ChaseVertex",
    "GuardedChaseReasoner",
    "Loop",
    "SkolemChase",
    "SkolemChaseResult",
    "certain_base_facts",
    "entails",
    "oracle_agrees",
    "skolem_chase_base_facts",
    "skolem_chase_entails",
]
