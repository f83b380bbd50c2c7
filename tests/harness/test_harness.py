"""Tests for the benchmark harness: runner, statistics, and reports."""

import pytest

from repro.harness.runner import BenchmarkRunner, RunRecord, run_on_tgds
from repro.harness.reports import (
    cactus_report,
    end_to_end_report,
    figure_summary_report,
    format_table,
    full_figure_report,
    pairwise_report,
    table1_report,
)
from repro.harness.stats import (
    both_fail_matrix,
    cactus_series,
    inputs_unprocessed_by_all,
    pairwise_slowdown_matrix,
    summarize,
    summarize_algorithm,
)
from repro.workloads.ontology_suite import generate_suite, suite_statistics


def _record(algorithm, input_id, seconds, *, size=10, output=10, body_atoms=1,
            timed_out=False, unsupported=False):
    return RunRecord(
        algorithm=algorithm, input_id=input_id, input_size=size,
        output_size=output, max_body_atoms=body_atoms, elapsed_seconds=seconds,
        timed_out=timed_out, unsupported=unsupported,
    )


#: one algorithm's runs: three processed inputs (blow-ups 2.0, 1.0, 1.5), a
#: timeout on the largest input and an unsupported input
HANDCRAFTED = (
    _record("exbdr", "i1", 0.4, size=10, output=20, body_atoms=3),
    _record("exbdr", "i2", 0.1, size=8, output=8, body_atoms=2),
    _record("exbdr", "i3", 0.2, size=12, output=18, body_atoms=4),
    _record("exbdr", "i4", 9.0, size=50, output=0, body_atoms=0, timed_out=True),
    _record("exbdr", "i5", 0.0, size=0, output=0, body_atoms=0, unsupported=True),
)


def _row(text, label):
    """The cells after ``label`` on the line of a rendered table that starts with it."""
    (line,) = [line for line in text.splitlines() if line.startswith(label)]
    return line[len(label):].split()


@pytest.fixture(scope="module")
def mini_suite():
    return generate_suite(count=3, seed=11, min_axioms=8, max_axioms=24)


@pytest.fixture(scope="module")
def mini_records(mini_suite):
    runner = BenchmarkRunner(timeout_seconds=10.0, include_kaon2=True)
    return runner.run_suite(mini_suite, algorithms=("exbdr", "skdr", "hypdr"))


class TestRunner:
    def test_records_cover_all_algorithm_input_pairs(self, mini_suite, mini_records):
        assert len(mini_records) == len(mini_suite) * 4  # three algorithms + kaon2

    def test_record_fields(self, mini_records):
        record = mini_records[0]
        assert record.input_size > 0
        assert record.output_size >= 0
        assert record.elapsed_seconds >= 0.0
        assert isinstance(record.as_dict(), dict)

    def test_blowup_property(self):
        record = RunRecord(
            algorithm="x", input_id="i", input_size=10, output_size=15,
            max_body_atoms=2, elapsed_seconds=0.1, timed_out=False,
        )
        assert record.blowup == pytest.approx(1.5)
        empty = RunRecord(
            algorithm="x", input_id="i", input_size=0, output_size=0,
            max_body_atoms=0, elapsed_seconds=0.0, timed_out=False,
        )
        assert empty.blowup == 0.0

    def test_run_on_tgds(self, running):
        tgds, _ = running
        result, elapsed = run_on_tgds(tgds, "hypdr", timeout_seconds=10.0)
        assert result.completed
        assert elapsed >= 0.0

    def test_timeout_marks_record(self, mini_suite):
        runner = BenchmarkRunner(timeout_seconds=0.0, include_kaon2=False)
        record = runner.run_algorithm("exbdr", mini_suite[-1])
        assert record.timed_out
        assert not record.succeeded

    def test_progress_callback(self, mini_suite):
        seen = []
        runner = BenchmarkRunner(timeout_seconds=5.0, include_kaon2=False)
        runner.run_suite(
            mini_suite[:1], algorithms=("hypdr",), progress=lambda a, i: seen.append((a, i))
        )
        assert seen == [("hypdr", mini_suite[0].identifier)]

    def test_requested_kaon2_is_not_run_twice(self, mini_suite):
        runner = BenchmarkRunner(timeout_seconds=10.0, include_kaon2=True)
        records = runner.run_suite(mini_suite[:1], algorithms=("hypdr", "KAON2"))
        assert [record.algorithm for record in records] == ["hypdr", "KAON2"]

    def test_as_dict_rounds_time_and_keeps_flags(self):
        record = _record("skdr", "i9", 0.123456, unsupported=True)
        assert record.as_dict() == {
            "algorithm": "skdr",
            "input_id": "i9",
            "input_size": 10,
            "output_size": 10,
            "max_body_atoms": 1,
            "elapsed_seconds": 0.1235,
            "timed_out": False,
            "unsupported": True,
        }
        assert not record.succeeded

    def test_package_exports_resolve(self):
        import repro.harness as harness

        for name in harness.__all__:
            assert getattr(harness, name) is not None, name


class TestStats:
    def test_summaries_per_algorithm(self, mini_records):
        summaries = summarize(mini_records)
        names = {summary.algorithm for summary in summaries}
        assert names == {"exbdr", "skdr", "hypdr", "kaon2"}
        for summary in summaries:
            assert summary.processed_inputs + summary.failed_inputs + summary.unsupported_inputs == 3
            assert summary.min_time <= summary.median_time <= summary.max_time

    def test_cactus_series_are_sorted(self, mini_records):
        for series in cactus_series(mini_records).values():
            times = [time for _, time in series]
            assert times == sorted(times)

    def test_pairwise_matrices_shape(self, mini_records):
        slowdown = pairwise_slowdown_matrix(mini_records)
        failures = both_fail_matrix(mini_records)
        algorithms = {"exbdr", "skdr", "hypdr", "kaon2"}
        assert {pair[0] for pair in slowdown} == algorithms
        assert all(count >= 0 for count in slowdown.values())
        assert all(count >= 0 for count in failures.values())

    def test_inputs_unprocessed_by_all(self):
        records = [
            RunRecord("a", "i1", 1, 1, 1, 0.1, timed_out=True),
            RunRecord("b", "i1", 1, 1, 1, 0.1, timed_out=True),
            RunRecord("a", "i2", 1, 1, 1, 0.1, timed_out=False),
            RunRecord("b", "i2", 1, 1, 1, 0.1, timed_out=True),
        ]
        assert inputs_unprocessed_by_all(records) == ("i1",)

    def test_slowdown_matrix_counts_timeouts_as_slow(self):
        records = [
            RunRecord("fast", "i1", 1, 1, 1, 0.01, timed_out=False),
            RunRecord("slow", "i1", 1, 1, 1, 1.0, timed_out=True),
        ]
        matrix = pairwise_slowdown_matrix(records)
        assert matrix[("slow", "fast")] == 1
        assert matrix[("fast", "slow")] == 0

    def test_summary_counts_only_processed_runs(self):
        summary = summarize_algorithm("exbdr", HANDCRAFTED)
        assert (summary.processed_inputs, summary.failed_inputs,
                summary.unsupported_inputs) == (3, 1, 1)
        # the timed-out run on the 50-TGD input sets no maximum
        assert summary.max_processed_input_size == 12
        assert summary.max_output_size == 20
        assert summary.max_blowup == pytest.approx(2.0)
        assert summary.max_body_atoms == 4
        assert summary.blowup_at_least_1_5 == 2  # 2.0 and exactly 1.5
        assert summary.min_time == pytest.approx(0.1)
        assert summary.max_time == pytest.approx(0.4)
        assert summary.avg_time == pytest.approx(0.7 / 3)
        assert summary.median_time == pytest.approx(0.2)

    def test_median_of_an_even_count_averages_the_middle_pair(self):
        records = [_record("a", f"i{n}", seconds) for n, seconds in
                   enumerate((0.1, 0.4, 0.2, 0.3))]
        assert summarize_algorithm("a", records).median_time == pytest.approx(0.25)

    def test_summary_without_processed_runs_is_zeroed(self):
        records = [_record("a", "i1", 5.0, timed_out=True),
                   _record("a", "i2", 5.0, timed_out=True)]
        summary = summarize_algorithm("a", records)
        assert summary.processed_inputs == 0
        assert summary.failed_inputs == 2
        assert summary.max_processed_input_size == 0
        assert summary.max_blowup == 0.0
        assert (summary.min_time, summary.max_time,
                summary.avg_time, summary.median_time) == (0.0, 0.0, 0.0, 0.0)

    def test_summaries_are_ordered_by_algorithm_name(self):
        records = [_record(name, "i1", 0.1) for name in ("skdr", "exbdr", "hypdr")]
        assert [s.algorithm for s in summarize(records)] == ["exbdr", "hypdr", "skdr"]

    def test_cactus_series_counts_processed_inputs_only(self):
        series = cactus_series(HANDCRAFTED + (_record("b", "i1", 1.0, timed_out=True),))
        assert series["exbdr"] == [(1, 0.1), (2, 0.2), (3, 0.4)]
        assert series["b"] == []

    def test_both_fail_matrix_counts_shared_timeouts(self):
        records = [
            _record("a", "i1", 1.0, timed_out=True),
            _record("a", "i2", 1.0, timed_out=True),
            _record("a", "i3", 0.1),
            _record("b", "i1", 1.0, timed_out=True),
            _record("b", "i2", 0.1),
            _record("b", "i3", 1.0, timed_out=True),
        ]
        matrix = both_fail_matrix(records)
        assert matrix[("a", "b")] == matrix[("b", "a")] == 1
        # the diagonal is each algorithm's own timeout count
        assert matrix[("a", "a")] == matrix[("b", "b")] == 2

    def test_slowdown_matrix_skips_unsupported_and_failed_baselines(self):
        records = [
            # i1: the slow side is unsupported, not slower
            _record("fast", "i1", 0.01),
            _record("slow", "i1", 0.0, unsupported=True),
            # i2: no baseline to be slower than when the fast side failed
            _record("fast", "i2", 5.0, timed_out=True),
            _record("slow", "i2", 5.0, timed_out=True),
            # i3: only one side ran
            _record("fast", "i3", 0.01),
        ]
        matrix = pairwise_slowdown_matrix(records)
        assert matrix[("slow", "fast")] == 0
        assert matrix[("fast", "slow")] == 0

    def test_slowdown_factor_is_inclusive(self):
        records = [
            _record("x", "i1", 0.5), _record("y", "i1", 5.0),
            _record("x", "i2", 0.5), _record("y", "i2", 4.99),
        ]
        assert pairwise_slowdown_matrix(records)[("y", "x")] == 1
        assert pairwise_slowdown_matrix(records, factor=2.0)[("y", "x")] == 2

    def test_inputs_unprocessed_by_the_considered_algorithms(self):
        records = [
            _record("a", "i1", 1.0, timed_out=True),
            _record("b", "i1", 0.1),
        ]
        assert inputs_unprocessed_by_all(records) == ()
        assert inputs_unprocessed_by_all(records, algorithms=("a",)) == ("i1",)


class TestReports:
    def test_format_table_alignment(self):
        text = format_table(["col", "n"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("col")

    def test_table1_report(self, mini_suite):
        text = table1_report(suite_statistics(mini_suite), len(mini_suite))
        assert "Table 1" in text
        assert "Full TGDs" in text and "Non-Full TGDs" in text

    def test_figure_summary_report(self, mini_records):
        text = figure_summary_report(mini_records, "Figure 4 (test)")
        assert "Figure 4 (test)" in text
        assert "# of Processed Inputs" in text
        assert "hypdr" in text

    def test_cactus_and_pairwise_reports(self, mini_records):
        assert "Cactus plot" in cactus_report(mini_records)
        pairwise = pairwise_report(mini_records)
        assert "time(Y)/time(X)" in pairwise
        assert "both fail" in pairwise

    def test_full_figure_report_combines_sections(self, mini_records):
        text = full_figure_report(mini_records, "Figure")
        assert text.count("\n\n") >= 2

    def test_end_to_end_report(self):
        rows = [
            {
                "input_id": "00001",
                "rule_count": 10,
                "input_facts": 100,
                "output_facts": 450,
                "elapsed_seconds": 0.5,
            }
        ]
        text = end_to_end_report(rows)
        assert "Table 2" in text
        assert "00001" in text
        assert "4.5" in text

    def test_end_to_end_ratio_of_an_empty_instance(self):
        rows = [{"input_id": "00002", "rule_count": 3, "input_facts": 0,
                 "output_facts": 7, "elapsed_seconds": 0.014}]
        assert _row(end_to_end_report(rows), "00002") == ["3", "0", "7", "7.0", "0.01"]

    def test_format_table_without_rows(self):
        assert format_table(["col", "n"], []).splitlines() == ["col  n", "---  -"]

    def test_table1_report_values(self):
        statistics = {
            "full": {"min": 1, "max": 9, "avg": 4.34, "med": 4.0},
            "non_full": {"min": 0, "max": 3, "avg": 1.26, "med": 1.5},
        }
        full, non_full = table1_report(statistics, 12).splitlines()[-2:]
        assert full.split() == ["12", "Full", "TGDs", "1", "9", "4.3", "4.0"]
        assert non_full.split() == ["12", "Non-Full", "TGDs", "0", "3", "1.3", "1.5"]

    def test_figure_summary_report_values(self):
        text = figure_summary_report(HANDCRAFTED, "Figure 4")
        assert _row(text, "Metric") == ["exbdr"]
        assert _row(text, "# of Processed Inputs") == ["3"]
        assert _row(text, "Max. Processed Input Size") == ["12"]
        assert _row(text, "Max. Size Blowup") == ["2.0"]
        assert _row(text, "# Blowup >= 1.5") == ["2"]
        assert _row(text, "Time (s) Avg.") == ["0.233"]
        assert _row(text, "Time (s) Med.") == ["0.2"]

    def test_cactus_report_always_plots_the_slowest_input(self):
        records = [_record("a", f"i{n}", n / 10) for n in range(1, 7)]
        text = cactus_report(records, points=2)
        # every third point, then the sixth (slowest) one appended
        assert "  a: 1@0.10s, 4@0.40s, 6@0.60s" in text.splitlines()

    def test_cactus_report_names_algorithms_without_processed_inputs(self):
        records = [_record("a", "i1", 1.0, timed_out=True)]
        assert "  a: no processed inputs" in cactus_report(records).splitlines()

    def test_pairwise_report_blank_diagonal_and_factor(self):
        records = [_record("x", "i1", 0.1), _record("y", "i1", 0.3)]
        text = pairwise_report(records, factor=2.0)
        assert text.startswith("time(Y)/time(X) >= 2\n")
        slowdown, failures = text.split("\n\nX and Y both fail\n")
        # y is 3x slower than x; each row has one cell because the diagonal is blank
        assert _row(slowdown, "x") == ["0"]
        assert _row(slowdown, "y") == ["1"]
        assert _row(failures, "x") == ["0", "0"]
