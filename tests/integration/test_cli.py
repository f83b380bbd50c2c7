"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main

CIM_DEPENDENCIES = """
ACEquipment(?x) -> exists ?y. hasTerminal(?x, ?y), ACTerminal(?y).
ACTerminal(?x) -> Terminal(?x).
hasTerminal(?x, ?z), Terminal(?z) -> Equipment(?x).
"""

CIM_FACTS = """
ACEquipment(sw1).
ACEquipment(sw2).
hasTerminal(sw1, trm1).
ACTerminal(trm1).
"""


@pytest.fixture
def dependency_file(tmp_path):
    path = tmp_path / "deps.gtgd"
    path.write_text(CIM_DEPENDENCIES, encoding="utf-8")
    return path


@pytest.fixture
def facts_file(tmp_path):
    path = tmp_path / "data.facts"
    path.write_text(CIM_FACTS, encoding="utf-8")
    return path


class TestHelp:
    def test_help_lists_the_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert (
            "{rewrite,materialize,entails,stats,compile,load,serve-batch,serve}"
            in capsys.readouterr().out
        )


class TestRewriteCommand:
    def test_rewrite_to_stdout(self, dependency_file, capsys):
        exit_code = main(["rewrite", str(dependency_file), "--algorithm", "hypdr"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert ":-" in captured.out
        assert "Equipment(?" in captured.out
        assert "Datalog rules" in captured.err

    def test_rewrite_to_file(self, dependency_file, tmp_path, capsys):
        output = tmp_path / "rewriting.dl"
        exit_code = main(
            ["rewrite", str(dependency_file), "-o", str(output), "--algorithm", "exbdr"]
        )
        assert exit_code == 0
        text = output.read_text(encoding="utf-8")
        assert "ACEquipment" in text
        assert ":-" in text

    def test_rewrite_with_ablation_flags(self, dependency_file, capsys):
        exit_code = main(
            [
                "rewrite",
                str(dependency_file),
                "--no-subsumption",
                "--no-lookahead",
                "--algorithm",
                "skdr",
            ]
        )
        assert exit_code == 0

    def test_rewrite_timeout_gives_nonzero_exit(self, dependency_file, capsys):
        exit_code = main(["rewrite", str(dependency_file), "--timeout", "0"])
        assert exit_code == 2

    def test_algorithm_name_is_case_insensitive(self, dependency_file, capsys):
        exit_code = main(["rewrite", str(dependency_file), "--algorithm", "HypDR"])
        assert exit_code == 0
        assert capsys.readouterr().err.startswith("# hypdr: ")

    def test_unknown_algorithm_rejected(self, dependency_file):
        with pytest.raises(SystemExit):
            main(["rewrite", str(dependency_file), "--algorithm", "magic"])


class TestMaterializeCommand:
    def test_materialize_prints_all_facts(self, dependency_file, facts_file, capsys):
        exit_code = main(["materialize", str(dependency_file), str(facts_file)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Equipment(sw1)." in captured.out
        assert "Equipment(sw2)." in captured.out
        assert "input facts" in captured.err


class TestEntailsCommand:
    def test_entailed_fact(self, dependency_file, facts_file, capsys):
        exit_code = main(
            ["entails", str(dependency_file), str(facts_file), "Equipment(sw2)"]
        )
        assert exit_code == 0
        assert "entailed" in capsys.readouterr().out

    def test_non_entailed_fact(self, dependency_file, facts_file, capsys):
        exit_code = main(
            ["entails", str(dependency_file), str(facts_file), "Equipment(trm1)"]
        )
        assert exit_code == 1
        assert "not entailed" in capsys.readouterr().out


QUERIES = """
% the introduction's question: list all known equipment
Equipment(?x)
Equipment(?x), hasTerminal(?x, ?y)
"""


@pytest.fixture
def queries_file(tmp_path):
    path = tmp_path / "queries.txt"
    path.write_text(QUERIES, encoding="utf-8")
    return path


@pytest.fixture
def kb_file(dependency_file, tmp_path):
    path = tmp_path / "cim.kb.json"
    assert main(["compile", str(dependency_file), "-o", str(path)]) == 0
    return path


class TestCompileCommand:
    def test_compile_writes_versioned_kb(self, dependency_file, tmp_path, capsys):
        import json

        output = tmp_path / "kb.json"
        exit_code = main(["compile", str(dependency_file), "-o", str(output)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "saved to" in captured.err
        payload = json.loads(output.read_text(encoding="utf-8"))
        assert payload["format"] == "repro-kb/v2"
        assert payload["datalog_rules"]

    def test_compile_with_algorithm(self, dependency_file, tmp_path, capsys):
        output = tmp_path / "kb.json"
        exit_code = main(
            ["compile", str(dependency_file), "-o", str(output), "--algorithm", "exbdr"]
        )
        assert exit_code == 0
        assert "exbdr" in capsys.readouterr().err


class TestLoadCommand:
    def test_load_prints_summary(self, kb_file, capsys):
        exit_code = main(["load", str(kb_file)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "algorithm:      HypDR" in captured.out
        assert "fingerprint:" in captured.out

    def test_load_with_rules(self, kb_file, capsys):
        exit_code = main(["load", str(kb_file), "--rules"])
        assert exit_code == 0
        assert ":-" in capsys.readouterr().out

    def test_load_rejects_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "repro-kb/v99"}', encoding="utf-8")
        exit_code = main(["load", str(path)])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err


class TestServeBatchCommand:
    def test_serve_batch_from_saved_kb(self, kb_file, facts_file, queries_file, capsys):
        exit_code = main(
            ["serve-batch", str(kb_file), str(facts_file), str(queries_file)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "sw1" in captured.out
        assert "sw2" in captured.out
        assert "answered 2 queries" in captured.err

    def test_serve_batch_compiles_gtgds_on_the_fly(
        self, dependency_file, facts_file, queries_file, capsys
    ):
        exit_code = main(
            ["serve-batch", str(dependency_file), str(facts_file), str(queries_file)]
        )
        assert exit_code == 0
        assert "sw1" in capsys.readouterr().out

    def test_serve_batch_refuses_incomplete_rewriting(
        self, dependency_file, facts_file, queries_file, tmp_path, capsys
    ):
        kb_path = tmp_path / "truncated.kb.json"
        assert (
            main(
                ["compile", str(dependency_file), "-o", str(kb_path), "--timeout", "0"]
            )
            == 2
        )
        exit_code = main(
            ["serve-batch", str(kb_path), str(facts_file), str(queries_file)]
        )
        assert exit_code == 2
        assert "incomplete" in capsys.readouterr().err

    def test_serve_batch_uses_facts_from_dependency_file(
        self, facts_file, queries_file, tmp_path, capsys
    ):
        mixed = tmp_path / "mixed.gtgd"
        mixed.write_text(CIM_DEPENDENCIES + "ACEquipment(seedsw).", encoding="utf-8")
        exit_code = main(
            ["serve-batch", str(mixed), str(facts_file), str(queries_file)]
        )
        assert exit_code == 0
        assert "seedsw" in capsys.readouterr().out

    def test_compiled_kb_serves_facts_from_dependency_file(
        self, facts_file, queries_file, tmp_path, capsys
    ):
        # one file answers the same compiled and uncompiled: its facts are
        # saved with the KB as seed facts
        mixed = tmp_path / "mixed.gtgd"
        mixed.write_text(CIM_DEPENDENCIES + "ACEquipment(seedsw).", encoding="utf-8")
        kb_path = tmp_path / "mixed.kb.json"
        assert main(["compile", str(mixed), "-o", str(kb_path)]) == 0
        exit_code = main(
            ["serve-batch", str(kb_path), str(facts_file), str(queries_file)]
        )
        assert exit_code == 0
        assert "seedsw" in capsys.readouterr().out

    def test_serve_batch_applies_deltas_incrementally(
        self, kb_file, facts_file, queries_file, tmp_path, capsys
    ):
        delta = tmp_path / "delta.facts"
        delta.write_text("ACEquipment(sw42).", encoding="utf-8")
        exit_code = main(
            [
                "serve-batch",
                str(kb_file),
                str(facts_file),
                str(queries_file),
                "--delta",
                str(delta),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "sw42" in captured.out
        assert "delta" in captured.err


    def test_serve_batch_retracts_incrementally(
        self, kb_file, facts_file, queries_file, tmp_path, capsys
    ):
        retract = tmp_path / "retract.facts"
        retract.write_text("ACEquipment(sw2).", encoding="utf-8")
        exit_code = main(
            [
                "serve-batch",
                str(kb_file),
                str(facts_file),
                str(queries_file),
                "--retract",
                str(retract),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "retract" in captured.err
        assert "sw2" not in captured.out

    def test_serve_batch_interleaves_updates_in_command_line_order(
        self, kb_file, facts_file, queries_file, tmp_path, capsys
    ):
        delta = tmp_path / "delta.facts"
        delta.write_text("ACEquipment(sw42).", encoding="utf-8")
        retract = tmp_path / "retract.facts"
        # retracting the fact added by the preceding --delta only works if
        # the two streams are applied in command-line order
        retract.write_text("ACEquipment(sw42).", encoding="utf-8")
        exit_code = main(
            [
                "serve-batch",
                str(kb_file),
                str(facts_file),
                str(queries_file),
                "--delta",
                str(delta),
                "--retract",
                str(retract),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "sw42" not in captured.out
        assert captured.err.index("delta") < captured.err.index("retract")

    def test_serve_batch_reads_queries_from_stdin(
        self, kb_file, facts_file, capsys, monkeypatch
    ):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("Equipment(?x)\n"))
        exit_code = main(["serve-batch", str(kb_file), str(facts_file), "-"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "sw1" in captured.out
        assert "answered 1 queries" in captured.err

    def test_serve_batch_json_emits_ndjson_results(
        self, kb_file, facts_file, queries_file, capsys
    ):
        import json

        exit_code = main(
            ["serve-batch", str(kb_file), str(facts_file), str(queries_file), "--json"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        lines = [json.loads(line) for line in captured.out.splitlines() if line]
        assert len(lines) == 2
        by_query = {line["query"]: line for line in lines}
        equipment = by_query["ans(?x) <- Equipment(?x)"]
        assert equipment["count"] == len(equipment["answers"])
        assert ["sw1"] in equipment["answers"]
        assert ["sw2"] in equipment["answers"]
        # answers are sorted rows of term strings — the canonical encoding
        assert equipment["answers"] == sorted(equipment["answers"])

    def test_serve_batch_json_from_stdin_pipeline(
        self, kb_file, facts_file, capsys, monkeypatch
    ):
        import io
        import json

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("Terminal(?x)\n% comment\nACEquipment(?x)\n")
        )
        exit_code = main(
            ["serve-batch", str(kb_file), str(facts_file), "-", "--json"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        lines = [json.loads(line) for line in captured.out.splitlines() if line]
        assert [line["query"] for line in lines] == [
            "ans(?x) <- Terminal(?x)",
            "ans(?x) <- ACEquipment(?x)",
        ]


class TestServeCommand:
    def test_serve_rejects_duplicate_kb_names(self, kb_file, capsys):
        exit_code = main(["serve", f"cim={kb_file}", f"cim={kb_file}"])
        assert exit_code == 2
        assert "duplicate" in capsys.readouterr().err

    def test_serve_rejects_facts_for_unknown_kb(self, kb_file, facts_file, capsys):
        exit_code = main(
            ["serve", f"cim={kb_file}", "--facts", f"other={facts_file}"]
        )
        assert exit_code == 2
        assert "names no loaded knowledge base" in capsys.readouterr().err

    def test_serve_rejects_missing_kb_file(self, tmp_path, capsys):
        exit_code = main(["serve", str(tmp_path / "missing.kb.json")])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_serve_rejects_a_negative_worker_count(self, kb_file, capsys):
        exit_code = main(
            ["serve", f"cim={kb_file}", "--workers", "-1", "--port", "0"]
        )
        assert exit_code == 2
        assert "error: worker count" in capsys.readouterr().err

    def test_serve_rejects_an_out_of_range_port(self, kb_file, capsys):
        for port in ("99999", "-1"):
            exit_code = main(["serve", f"cim={kb_file}", "--port", port])
            assert exit_code == 2
            assert f"error: port must be 0-65535, got {port}" in capsys.readouterr().err


class TestStatsCommand:
    def test_stats_output(self, dependency_file, capsys):
        exit_code = main(["stats", str(dependency_file)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "full TGDs" in captured.out
        assert "non-full TGDs" in captured.out
        assert "maximum arity:     2" in captured.out

    def test_stats_with_facts_in_file(self, tmp_path, capsys):
        path = tmp_path / "mixed.gtgd"
        path.write_text(CIM_DEPENDENCIES + CIM_FACTS, encoding="utf-8")
        exit_code = main(["stats", str(path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "facts in file:     4" in captured.out


#: dependency files that every subcommand must refuse with a structured error
BAD_DEPENDENCIES = {
    "syntax-error": "A(?x -> B(?x).",
    "unguarded-tgd": "R(?x, ?y), E(?y, ?z) -> R(?x, ?z).",
}


def _command_line(command, dependencies, facts, tmp_path):
    """A full command line for ``command`` over the given dependency file."""
    queries = tmp_path / "queries.txt"
    queries.write_text("Equipment(?x)\n", encoding="utf-8")
    return {
        "rewrite": ["rewrite", dependencies],
        "compile": ["compile", dependencies, "-o", str(tmp_path / "out.kb.json")],
        "materialize": ["materialize", dependencies, facts],
        "entails": ["entails", dependencies, facts, "Equipment(sw1)"],
        "stats": ["stats", dependencies],
        "serve-batch": ["serve-batch", dependencies, facts, str(queries)],
        "serve": ["serve", dependencies, "--port", "0"],
    }[command]


class TestInputErrors:
    """An input error prints ``error: <message>`` and exits 2, never a
    traceback; exit 1 stays ``entails``' "not entailed"."""

    @pytest.mark.parametrize(
        "command, problem",
        [
            (command, problem)
            for command in ("rewrite", "compile", "materialize", "entails")
            for problem in ("syntax-error", "unguarded-tgd", "missing-file", "negative-timeout")
        ]
        # ``serve-batch`` and ``serve`` already refused a missing file; ``stats``
        # takes no --timeout
        + [
            (command, problem)
            for command in ("serve-batch", "serve")
            for problem in ("syntax-error", "unguarded-tgd", "negative-timeout")
        ]
        + [("stats", problem) for problem in ("syntax-error", "unguarded-tgd", "missing-file")],
    )
    def test_bad_input_is_an_error_line_with_exit_2(
        self, command, problem, dependency_file, facts_file, tmp_path, capsys
    ):
        dependencies = str(dependency_file)
        extra = []
        if problem in BAD_DEPENDENCIES:
            dependencies = str(tmp_path / "bad.gtgd")
            Path(dependencies).write_text(BAD_DEPENDENCIES[problem], encoding="utf-8")
        elif problem == "missing-file":
            dependencies = str(tmp_path / "missing.gtgd")
        else:
            extra = ["--timeout", "-1"]
        argv = _command_line(command, dependencies, str(facts_file), tmp_path) + extra
        exit_code = main(argv)
        err = capsys.readouterr().err
        assert exit_code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_serve_batch_malformed_query_line(
        self, dependency_file, facts_file, tmp_path, capsys
    ):
        queries = tmp_path / "queries.txt"
        queries.write_text("Equipment(?x)\nEquipment(?x\n", encoding="utf-8")
        exit_code = main(
            ["serve-batch", str(dependency_file), str(facts_file), str(queries)]
        )
        err = capsys.readouterr().err
        assert exit_code == 2
        # the queries are parsed before the session is opened
        assert err.startswith("error: ")
        assert "# session" not in err
