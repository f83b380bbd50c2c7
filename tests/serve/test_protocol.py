"""Tests for the NDJSON serving protocol (framing, validation, encoding)."""

import json

import pytest

from repro.logic.parser import parse_facts
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_answers,
    encode_message,
    error_response,
    mutation_result,
    ok_response,
    query_result,
    validate_request,
)


class TestFraming:
    def test_encode_is_one_terminated_line(self):
        line = encode_message({"op": "ping", "id": 7})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1

    def test_roundtrip(self):
        message = {"id": 3, "op": "query", "query": "Equipment(?x)"}
        assert decode_message(encode_message(message)) == message

    def test_decode_accepts_str_and_bytes(self):
        assert decode_message('{"op":"ping"}') == {"op": "ping"}
        assert decode_message(b'{"op":"ping"}') == {"op": "ping"}

    def test_decode_rejects_malformed_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_message("{nope")

    def test_decode_rejects_what_json_loads_cannot_hold(self):
        # json.loads raises a plain ValueError past Python's integer digit
        # limit, and RecursionError on deep nesting
        for line in ('{"id": ' + "1" * 5000 + "}", "[" * 5000 + "]" * 5000):
            with pytest.raises(ProtocolError, match="not valid JSON"):
                decode_message(line)

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_message("[1, 2]")


class TestValidateRequest:
    def test_known_ops_pass(self):
        assert validate_request({"op": "ping"}) == "ping"
        assert validate_request({"op": "stats"}) == "stats"
        assert validate_request({"op": "query", "query": "P(?x)"}) == "query"
        assert validate_request({"op": "add", "facts": "P(a)."}) == "add"
        assert validate_request({"op": "retract", "facts": "P(a)."}) == "retract"

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request({"op": "drop_tables"})
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request({})

    def test_query_needs_string_query(self):
        with pytest.raises(ProtocolError, match="string 'query'"):
            validate_request({"op": "query"})
        with pytest.raises(ProtocolError, match="string 'query'"):
            validate_request({"op": "query", "query": 42})

    def test_mutations_need_string_facts(self):
        for op in ("add", "retract"):
            with pytest.raises(ProtocolError, match="string 'facts'"):
                validate_request({"op": op})

    def test_query_strategies_accepted(self):
        for strategy in ("auto", "materialized", "demand"):
            request = {"op": "query", "query": "P(?x)", "strategy": strategy}
            assert validate_request(request) == "query"
        # omitting the field defaults to auto
        assert validate_request({"op": "query", "query": "P(?x)"}) == "query"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ProtocolError, match="unknown strategy"):
            validate_request(
                {"op": "query", "query": "P(?x)", "strategy": "telepathy"}
            )
        with pytest.raises(ProtocolError, match="unknown strategy"):
            validate_request({"op": "query", "query": "P(?x)", "strategy": 3})

    def test_deadline_ms_accepted_on_query_and_mutations(self):
        for request in (
            {"op": "query", "query": "P(?x)", "deadline_ms": 250},
            {"op": "query", "query": "P(?x)", "deadline_ms": 0.5},
            {"op": "add", "facts": "P(a).", "deadline_ms": 1000},
            {"op": "retract", "facts": "P(a).", "deadline_ms": 1000},
        ):
            assert validate_request(request) == request["op"]
        # omitting the field means "use the server default"
        assert validate_request({"op": "query", "query": "P(?x)"}) == "query"

    def test_bad_deadline_ms_rejected(self):
        # NaN and Infinity parse from JSON, and NaN <= 0 is False; a
        # 400-digit integer parses too, but no float holds it
        nan, infinity = float("nan"), float("inf")
        huge = 10**400
        for deadline in (0, -5, "100", True, [100], nan, infinity, -infinity, huge):
            with pytest.raises(ProtocolError, match="deadline_ms"):
                validate_request(
                    {"op": "query", "query": "P(?x)", "deadline_ms": deadline}
                )
        for literal in ("NaN", str(huge)):
            decoded = decode_message(
                '{"op": "query", "query": "P(?x)", "deadline_ms": %s}' % literal
            )
            with pytest.raises(ProtocolError, match="deadline_ms"):
                validate_request(decoded)
        # a finite deadline of any size a float holds is fine
        for deadline in (0.5, 100, 10**300):
            assert validate_request(
                {"op": "query", "query": "P(?x)", "deadline_ms": deadline}
            ) == "query"

    def test_non_string_kb_rejected(self):
        for kb in (["k"], {"name": "k"}, 3, True):
            for request in (
                {"op": "query", "query": "P(?x)", "kb": kb},
                {"op": "add", "facts": "P(a).", "kb": kb},
                {"op": "retract", "facts": "P(a).", "kb": kb},
            ):
                with pytest.raises(ProtocolError, match="kb must be"):
                    validate_request(request)
        # omitted, or named by a string
        assert validate_request({"op": "query", "query": "P(?x)", "kb": "k"}) == "query"
        assert validate_request({"op": "query", "query": "P(?x)", "kb": None}) == "query"


class TestResponses:
    def test_ok_response_echoes_id_and_fields(self):
        response = ok_response(9, count=3)
        assert response == {"id": 9, "ok": True, "count": 3}

    def test_error_response_shape(self):
        response = error_response("a", "bad query")
        assert response == {"id": "a", "ok": False, "error": "bad query"}

    def test_error_response_kind_tags_machine_actionable_failures(self):
        response = error_response("a", "too slow", kind="timeout")
        assert response["error_kind"] == "timeout"
        # untagged errors must not carry the field at all
        assert "error_kind" not in error_response("a", "bad query")

    def test_protocol_version_is_stable(self):
        # clients key off this string; changing it is a breaking change
        assert PROTOCOL_VERSION == "repro-serve/v1"


class TestEncodeAnswers:
    def test_sorted_string_rows(self):
        facts = parse_facts("R(b, a).\nR(a, b).")
        rows = {fact.args for fact in facts}
        assert encode_answers(rows) == [["a", "b"], ["b", "a"]]

    def test_canonical_under_iteration_order(self):
        facts = parse_facts("P(c).\nP(a).\nP(b).")
        rows = [fact.args for fact in facts]
        assert encode_answers(rows) == encode_answers(reversed(rows))

    def test_json_serializable(self):
        facts = parse_facts("P(a).")
        payload = query_result("P(?x)", [fact.args for fact in facts])
        assert json.loads(encode_message(payload)) == {
            "query": "P(?x)",
            "answers": [["a"]],
            "count": 1,
        }

    def test_query_result_cached_flag_is_optional(self):
        assert "cached" not in query_result("P(?x)", [])
        assert query_result("P(?x)", [], cached=True)["cached"] is True


class TestMutationResult:
    def test_add_and_retract_shapes(self):
        class Delta:
            added_facts = 2
            derived_count = 5
            rounds = 3

        class Retraction:
            retracted_facts = 1
            ignored_facts = 0
            overdeleted = 4
            rederived = 2
            net_removed = 2
            rounds = 2

        added = mutation_result("add", Delta())
        assert added["op"] == "add"
        assert added["derived"] == 5
        retracted = mutation_result("retract", Retraction())
        assert retracted["op"] == "retract"
        assert retracted["net_removed"] == 2
        assert retracted["overdeleted"] == 4
