"""Plain-text report rendering in the shape of the paper's tables and figures.

Every benchmark script prints its results through these helpers so that the
rows and columns line up with the corresponding artefact of the paper
(Table 1, Figure 4, Table 2, Figure 5) and can be compared side by side in
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

from .runner import RunRecord
from .stats import (
    AlgorithmSummary,
    both_fail_matrix,
    cactus_series,
    pairwise_slowdown_matrix,
    summarize,
)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a simple fixed-width text table."""
    columns = [list(map(str, column)) for column in zip(headers, *rows)] if rows else [
        [header] for header in headers
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines: List[str] = []
    header_line = "  ".join(
        str(header).ljust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def table1_report(statistics: Mapping[str, Mapping[str, float]], input_count: int) -> str:
    """Render the Table 1 "Input GTGDs at a Glance" block."""
    headers = ["Inputs #", "kind", "Min", "Max", "Avg", "Med"]
    rows = []
    for kind, label in (("full", "Full TGDs"), ("non_full", "Non-Full TGDs")):
        block = statistics[kind]
        rows.append(
            [
                input_count,
                label,
                int(block["min"]),
                int(block["max"]),
                round(block["avg"], 1),
                round(block["med"], 1),
            ]
        )
    return "Table 1: Input GTGDs at a Glance\n" + format_table(headers, rows)


def figure_summary_report(records: Sequence[RunRecord], title: str) -> str:
    """Render the per-algorithm statistics block of Figure 4 / Figure 5."""
    summaries = summarize(records)
    headers = [
        "Metric",
        *[summary.algorithm for summary in summaries],
    ]
    metric_rows: List[List[object]] = []
    metrics: List[Tuple[str, str]] = [
        ("# of Processed Inputs", "processed_inputs"),
        ("Max. Processed Input Size", "max_processed_input_size"),
        ("Max. Output Size", "max_output_size"),
        ("Max. Size Blowup", "max_blowup"),
        ("Max. Body Atoms in Output", "max_body_atoms"),
        ("# Blowup >= 1.5", "blowup_at_least_1_5"),
        ("Time (s) Min.", "min_time"),
        ("Time (s) Max.", "max_time"),
        ("Time (s) Avg.", "avg_time"),
        ("Time (s) Med.", "median_time"),
    ]
    for label, attribute in metrics:
        row: List[object] = [label]
        for summary in summaries:
            row.append(summary.as_dict()[attribute if attribute != "max_blowup" else "max_blowup"])
        metric_rows.append(row)
    return f"{title}\n" + format_table(headers, metric_rows)


def cactus_report(records: Sequence[RunRecord], points: int = 8) -> str:
    """Render a textual cactus plot: time needed to process the n fastest inputs."""
    series = cactus_series(records)
    lines = ["Cactus plot (inputs processed vs. time in seconds):"]
    for algorithm, values in sorted(series.items()):
        if not values:
            lines.append(f"  {algorithm}: no processed inputs")
            continue
        step = max(1, len(values) // points)
        samples = values[::step]
        if samples[-1] != values[-1]:
            samples.append(values[-1])
        rendered = ", ".join(f"{count}@{time_value:.2f}s" for count, time_value in samples)
        lines.append(f"  {algorithm}: {rendered}")
    return "\n".join(lines)


def pairwise_report(records: Sequence[RunRecord], factor: float = 10.0) -> str:
    """Render the "time(Y)/time(X) ≥ 10" and "X and Y both fail" matrices."""
    slowdown = pairwise_slowdown_matrix(records, factor)
    failures = both_fail_matrix(records)
    algorithms = sorted({record.algorithm for record in records})
    headers = ["Y \\ X"] + algorithms
    slowdown_rows = []
    for slower in algorithms:
        row: List[object] = [slower]
        for faster in algorithms:
            row.append("" if slower == faster else slowdown.get((slower, faster), 0))
        slowdown_rows.append(row)
    failure_rows = []
    for left in algorithms:
        row = [left]
        for right in algorithms:
            row.append(failures.get((left, right), 0))
        failure_rows.append(row)
    return (
        f"time(Y)/time(X) >= {factor:g}\n"
        + format_table(headers, slowdown_rows)
        + "\n\nX and Y both fail\n"
        + format_table(headers, failure_rows)
    )


def end_to_end_report(rows: Sequence[Mapping[str, object]]) -> str:
    """Render the Table 2 "Computing the Fixpoint of the Rewriting" block."""
    headers = ["Input", "# Rules", "# Input Facts", "# Output Facts", "Ratio", "Time (s)"]
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row["input_id"],
                row["rule_count"],
                row["input_facts"],
                row["output_facts"],
                round(row["output_facts"] / max(1, row["input_facts"]), 1),
                round(row["elapsed_seconds"], 2),
            ]
        )
    return "Table 2: Computing the Fixpoint of the Rewriting\n" + format_table(
        headers, table_rows
    )


def full_figure_report(records: Sequence[RunRecord], title: str) -> str:
    """The complete Figure 4/5-style report: summary, cactus plot, pairwise matrices."""
    return "\n\n".join(
        [
            figure_summary_report(records, title),
            cactus_report(records),
            pairwise_report(records),
        ]
    )
