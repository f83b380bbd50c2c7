"""Benchmark harness: runners, aggregation, and paper-style report rendering."""

from .runner import BenchmarkRunner, RunRecord, run_on_tgds
from .reports import (
    cactus_report,
    end_to_end_report,
    figure_summary_report,
    format_table,
    full_figure_report,
    pairwise_report,
    table1_report,
)
from .stats import (
    AlgorithmSummary,
    both_fail_matrix,
    cactus_series,
    group_by_algorithm,
    inputs_unprocessed_by_all,
    pairwise_slowdown_matrix,
    summarize,
    summarize_algorithm,
)

__all__ = [
    "AlgorithmSummary",
    "BenchmarkRunner",
    "RunRecord",
    "both_fail_matrix",
    "cactus_report",
    "cactus_series",
    "end_to_end_report",
    "figure_summary_report",
    "format_table",
    "full_figure_report",
    "group_by_algorithm",
    "inputs_unprocessed_by_all",
    "pairwise_report",
    "pairwise_slowdown_matrix",
    "run_on_tgds",
    "summarize",
    "summarize_algorithm",
    "table1_report",
]
