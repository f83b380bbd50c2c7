"""Tests for the top-level rewrite() dispatcher and input validation."""

import pytest

from repro.logic.parser import parse_tgds
from repro.rewriting import (
    ALGORITHMS,
    RewritingSettings,
    UnguardedTGDError,
    available_algorithms,
    make_inference,
    rewrite,
    rewrite_program,
    validate_guardedness,
)
from repro.rewriting.exbdr import ExbDR
from repro.rewriting.fulldr import FullDR
from repro.rewriting.hypdr import HypDR
from repro.rewriting.skdr import SkDR
from repro.workloads.families import running_example


class TestDispatch:
    def test_available_algorithms(self):
        assert available_algorithms() == ("exbdr", "fulldr", "hypdr", "skdr")

    def test_algorithms_maps_names_to_classes(self):
        assert ALGORITHMS == {
            "exbdr": ExbDR,
            "fulldr": FullDR,
            "hypdr": HypDR,
            "skdr": SkDR,
        }

    def test_make_inference(self):
        assert isinstance(make_inference("exbdr"), ExbDR)
        assert isinstance(make_inference("HypDR"), HypDR)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_inference("magic")
        tgds, _ = running_example()
        with pytest.raises(ValueError, match="unknown algorithm"):
            rewrite(tgds, algorithm="magic")

    def test_default_algorithm_is_hypdr(self):
        tgds, _ = running_example()
        result = rewrite(tgds)
        assert result.algorithm == "HypDR"

    def test_rewrite_program_returns_datalog_program(self):
        from repro.datalog import DatalogProgram

        tgds, _ = running_example()
        program = rewrite_program(tgds, algorithm="skdr")
        assert isinstance(program, DatalogProgram)
        assert len(program) > 0


class TestSettingsValidation:
    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout_seconds"):
            RewritingSettings(timeout_seconds=-1.0)

    def test_non_positive_max_clauses_rejected(self):
        for bad in (0, -5):
            with pytest.raises(ValueError, match="max_clauses"):
                RewritingSettings(max_clauses=bad)

    def test_zero_timeout_and_positive_limits_accepted(self):
        settings = RewritingSettings(timeout_seconds=0.0, max_clauses=1)
        assert settings.timeout_seconds == 0.0
        assert settings.max_clauses == 1


class TestValidation:
    def test_unguarded_input_rejected(self):
        tgds = parse_tgds("A(?x), B(?y) -> C(?x, ?y).")
        with pytest.raises(UnguardedTGDError):
            rewrite(tgds, algorithm="hypdr")

    def test_validate_guardedness_passes_through_guarded_sets(self):
        tgds, _ = running_example()
        assert validate_guardedness(tgds) == tuple(tgds)

    def test_empty_input_yields_empty_rewriting(self):
        for algorithm in available_algorithms():
            result = rewrite((), algorithm=algorithm)
            assert result.output_size == 0
            assert result.completed


class TestAlgorithmsAgree:
    def test_all_algorithms_produce_equivalent_rewritings(self):
        """Different algorithms may output different rules, but the rewritings
        must entail the same base facts on every base instance."""
        from repro.chase import certain_base_facts
        from repro.datalog import materialize
        from repro.workloads.random_gtgds import (
            RandomGTGDConfig,
            generate_random_gtgds,
            generate_random_instance,
        )

        for seed in (3, 11, 17):
            tgds = generate_random_gtgds(RandomGTGDConfig(seed=seed, tgd_count=6))
            instance = generate_random_instance(tgds, seed=seed)
            expected = certain_base_facts(instance, tgds)
            for algorithm in ("exbdr", "skdr", "hypdr"):
                result = rewrite(tgds, algorithm=algorithm)
                facts = {
                    fact
                    for fact in materialize(result.program(), instance).facts()
                    if fact.is_base_fact
                }
                assert facts == expected, (seed, algorithm)
