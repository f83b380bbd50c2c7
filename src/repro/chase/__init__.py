"""The tree-like chase: chase trees, sequences, loops, and entailment oracles."""

from .guarded_engine import (
    GuardedChaseReasoner,
    ReferenceGuardedReasoner,
)
from .oracle import (
    bounded_certain_base_facts,
    certain_base_facts,
    entails,
    oracle_agrees,
)
from .plans import ChasePlanStats, SkolemRulePlan, compile_chase_plans
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
    "ChasePlanStats",
    "ChaseSequence",
    "ChaseStepRecord",
    "ChaseTree",
    "ChaseVertex",
    "GuardedChaseReasoner",
    "Loop",
    "ReferenceGuardedReasoner",
    "SkolemChase",
    "SkolemChaseResult",
    "SkolemRulePlan",
    "bounded_certain_base_facts",
    "certain_base_facts",
    "compile_chase_plans",
    "entails",
    "oracle_agrees",
    "skolem_chase_base_facts",
    "skolem_chase_entails",
]
