"""The one wire format of the serving layer: newline-delimited JSON.

Every message — a request to the long-lived server, its response, and each
result line of ``serve-batch --json`` — is a single JSON object on a single
line (NDJSON), so clients can stream with nothing but a line reader and a
JSON parser.  This module owns encoding and decoding for both directions;
the batch CLI and the server deliberately share it so the two serving paths
speak one format.

Requests
--------

Every request is an object with an ``op`` and an optional ``id`` (echoed
verbatim in the response, so clients may pipeline)::

    {"id": 1, "op": "query",   "kb": "cim", "query": "Equipment(?x)"}
    {"id": 2, "op": "add",     "kb": "cim", "facts": "ACEquipment(sw9)."}
    {"id": 3, "op": "retract", "kb": "cim", "facts": "ACEquipment(sw1)."}
    {"id": 4, "op": "stats"}
    {"id": 5, "op": "ping"}

``kb`` (a string) may be omitted when the server hosts exactly one
knowledge base.
A query request may carry a ``strategy`` field — one of ``"auto"``
(default), ``"materialized"``, ``"demand"`` — selecting how the worker
evaluates it (see :class:`repro.datalog.query.QueryOptions`); answers are
identical under every strategy, and the server counts requests per
strategy in its ``stats`` payload.

Query, ``add``, and ``retract`` requests may carry ``deadline_ms`` — a
positive, finite number of milliseconds this request is willing to wait.
The server enforces it (falling back to its configured default): a request
whose answer is not delivered in time gets a structured ``timeout`` error
instead of hanging.  A timed-out *mutation* is indeterminate — if it was
still queued it was never applied, but a timeout that fired while the op
was mid-application leaves it applied; clients must re-check (query the
generation) rather than blindly resubmit.

Responses
---------

``{"id": ..., "ok": true, ...}`` on success, with op-specific fields
(``answers`` as a sorted list of term-string rows for queries, mutation
counters for add/retract, the stats block for ``stats``), or
``{"id": ..., "ok": false, "error": "..."}`` on failure.  Failures the
client is expected to *react* to also carry ``error_kind``: ``"timeout"``
(the request's deadline expired — safe to retry reads, re-check
mutations) and ``"overloaded"`` (the admission queue shed the request —
back off and retry).  Answers are encoded by :func:`encode_answers`,
which both the server and the correctness checks in the tests use, so
"the same answers" is a well-defined string comparison.
"""

from __future__ import annotations

import json
import math
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

#: protocol identifier reported by the server's hello/stats payloads
PROTOCOL_VERSION = "repro-serve/v1"

#: request operations the server understands
REQUEST_OPS = ("query", "add", "retract", "stats", "ping")

#: strategies a query request may ask for (mirrors QUERY_STRATEGIES in
#: repro.datalog.query; duplicated as plain strings so the protocol module
#: stays import-light)
QUERY_STRATEGIES = ("auto", "materialized", "demand")


class ProtocolError(ValueError):
    """Raised when a message is not a valid protocol line."""


# ----------------------------------------------------------------------
# message framing
# ----------------------------------------------------------------------
def encode_message(message: Mapping[str, object]) -> bytes:
    """Serialize one message as a single NDJSON line (bytes, newline included)."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line: "str | bytes") -> Dict[str, object]:
    """Parse one NDJSON line into a message dict.

    Raises :class:`ProtocolError` on malformed JSON or a non-object payload.
    ``json.loads`` raises a plain ``ValueError`` for an integer literal past
    Python's digit limit and ``RecursionError`` for deep nesting; both are
    malformed input too.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"a protocol message must be a JSON object, got {type(message).__name__}"
        )
    return message


def _is_deadline(value: object) -> bool:
    """Whether ``value`` is a positive, finite number of milliseconds.

    ``json.loads`` also yields NaN, ±Infinity and integers too long for a
    float; none of them is a deadline.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value) and value > 0
    except OverflowError:
        return False


def validate_request(message: Mapping[str, object]) -> str:
    """Check a decoded request's shape; return its ``op``.

    Raises :class:`ProtocolError` naming the problem — the server turns
    that into an ``ok: false`` response rather than dropping the
    connection.
    """
    op = message.get("op")
    if op not in REQUEST_OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(REQUEST_OPS)}"
        )
    if op == "query":
        if not isinstance(message.get("query"), str):
            raise ProtocolError("a query request needs a string 'query' field")
        strategy = message.get("strategy", "auto")
        if strategy not in QUERY_STRATEGIES:
            raise ProtocolError(
                f"unknown strategy {strategy!r}; expected one of "
                f"{', '.join(QUERY_STRATEGIES)}"
            )
    if op in ("add", "retract") and not isinstance(message.get("facts"), str):
        raise ProtocolError(f"an {op} request needs a string 'facts' field")
    if op in ("query", "add", "retract"):
        kb = message.get("kb")
        if kb is not None and not isinstance(kb, str):
            raise ProtocolError(f"kb must be a knowledge base name, got {kb!r}")
        deadline = message.get("deadline_ms")
        if deadline is not None and not _is_deadline(deadline):
            raise ProtocolError(
                f"deadline_ms must be a positive number of milliseconds, "
                f"got {deadline!r}"
            )
    return op


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------
def ok_response(
    request_id: object = None, **fields: object
) -> Dict[str, object]:
    """A success response echoing the request id."""
    response: Dict[str, object] = {"id": request_id, "ok": True}
    response.update(fields)
    return response


def error_response(
    request_id: object, message: str, kind: Optional[str] = None
) -> Dict[str, object]:
    """A failure response echoing the request id.

    ``kind`` tags machine-actionable failures (``"timeout"``,
    ``"overloaded"``) as ``error_kind`` so clients can branch on them
    without parsing the message text.
    """
    response: Dict[str, object] = {"id": request_id, "ok": False, "error": message}
    if kind is not None:
        response["error_kind"] = kind
    return response


# ----------------------------------------------------------------------
# payload encoding shared by the server and serve-batch --json
# ----------------------------------------------------------------------
def encode_answers(
    answers: "FrozenSet[Tuple[object, ...]] | Iterable[Tuple[object, ...]]",
) -> List[List[str]]:
    """Answer tuples as a deterministically sorted list of term-string rows.

    The sort makes the encoding canonical: two answer sets are equal iff
    their encodings are equal, which is what the stale-cache checks (the
    serving tests and hypothesis properties) compare.
    """
    return sorted([str(term) for term in row] for row in answers)


def query_result(query_text: str, answers, cached: Optional[bool] = None) -> Dict[str, object]:
    """The op-agnostic query result payload (server response body and
    ``serve-batch --json`` line share this shape)."""
    encoded = encode_answers(answers)
    payload: Dict[str, object] = {
        "query": query_text,
        "answers": encoded,
        "count": len(encoded),
    }
    if cached is not None:
        payload["cached"] = cached
    return payload


def mutation_result(kind: str, result) -> Dict[str, object]:
    """Counters of one applied mutation (a Delta/RetractionResult)."""
    if kind == "add":
        return {
            "op": "add",
            "added_facts": result.added_facts,
            "derived": result.derived_count,
            "rounds": result.rounds,
        }
    return {
        "op": "retract",
        "retracted_facts": result.retracted_facts,
        "ignored_facts": result.ignored_facts,
        "overdeleted": result.overdeleted,
        "rederived": result.rederived,
        "net_removed": result.net_removed,
        "rounds": result.rounds,
    }
