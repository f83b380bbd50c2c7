"""Datalog rewriting of guarded TGDs: ExbDR, SkDR, HypDR, FullDR, and Algorithm 1."""

from .base import (
    InferenceRule,
    RewritingResult,
    RewritingSettings,
    SaturationStatistics,
)
from .exbdr import ExbDR
from .fulldr import FullDR
from .hypdr import HypDR
from .lookahead import rule_result_is_dead_end, tgd_result_is_dead_end
from .rewriter import (
    ALGORITHMS,
    UnguardedTGDError,
    available_algorithms,
    make_inference,
    rewrite,
    rewrite_program,
    validate_guardedness,
)
from .saturation import Saturation, saturate
from .skdr import SkDR
from .subsumption import (
    approximate_rule_subsumes,
    approximate_tgd_subsumes,
    exact_rule_subsumes,
    exact_tgd_subsumes,
    is_syntactic_tautology,
    subsumes,
)

__all__ = [
    "ALGORITHMS",
    "ExbDR",
    "FullDR",
    "HypDR",
    "InferenceRule",
    "RewritingResult",
    "RewritingSettings",
    "SaturationStatistics",
    "Saturation",
    "SkDR",
    "UnguardedTGDError",
    "approximate_rule_subsumes",
    "approximate_tgd_subsumes",
    "available_algorithms",
    "exact_rule_subsumes",
    "exact_tgd_subsumes",
    "is_syntactic_tautology",
    "make_inference",
    "rewrite",
    "rewrite_program",
    "rule_result_is_dead_end",
    "saturate",
    "subsumes",
    "tgd_result_is_dead_end",
    "validate_guardedness",
]
