"""A semi-naive Datalog engine: programs, fact stores, materialization, queries."""

from .engine import (
    BudgetExceeded,
    DatalogEngine,
    DeltaUpdateResult,
    MaterializationResult,
    RetractionResult,
    compiled_engine,
    materialize,
)
from .store import FactStore
from .magic import (
    DemandAnswer,
    DemandReport,
    MagicProgram,
    demand_answer,
    magic_transform,
    query_has_bound_arguments,
)
from .plan import BindingBatch, JoinPlanStats, PlanVariant, RulePlan
from .program import DatalogProgram, DatalogValidationError
from .query import (
    ConjunctiveQuery,
    QueryOptions,
    QueryValidationError,
    QUERY_STRATEGIES,
    evaluate_query,
    parse_query,
)
from .session import ReasoningSession

__all__ = [
    "BindingBatch",
    "BudgetExceeded",
    "ConjunctiveQuery",
    "DatalogEngine",
    "DatalogProgram",
    "DatalogValidationError",
    "DeltaUpdateResult",
    "DemandAnswer",
    "DemandReport",
    "FactStore",
    "JoinPlanStats",
    "MagicProgram",
    "MaterializationResult",
    "PlanVariant",
    "QUERY_STRATEGIES",
    "QueryOptions",
    "QueryValidationError",
    "ReasoningSession",
    "RetractionResult",
    "RulePlan",
    "compiled_engine",
    "demand_answer",
    "evaluate_query",
    "magic_transform",
    "materialize",
    "parse_query",
    "query_has_bound_arguments",
]
