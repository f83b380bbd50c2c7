"""Versioned JSON serialization of compiled knowledge bases.

See the package docstring for the field reference.  The functions here work
on the persistence payload; the user-facing entry points are
:meth:`repro.api.KnowledgeBase.save` and :meth:`repro.api.KnowledgeBase.load`.

``repro-kb/v2`` extends ``repro-kb/v1`` with an optional columnar
``fact_segments`` block: a compact term table (the constants appearing in
the stored facts, in ID order) plus one relation segment per predicate whose
rows are flat term-ID sequences.  Segments are decoded *per predicate on
first access* (:class:`FactSegments`), so a KB whose fact payload is larger
than what a session wants in memory can serve a bound demand query by
materializing only the predicates the magic-sets program actually probes.
``repro-kb/v1`` files keep loading through a documented compatibility shim
(:func:`upgrade_v1_payload`) that rewrites the payload to the v2 in-memory
form — v1 simply has no fact segments.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import fields
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..logic.atoms import Atom, Predicate
from ..logic.rules import Rule
from ..logic.terms import Constant, Term, Variable
from ..logic.tgd import TGD
from ..rewriting.base import RewritingResult, SaturationStatistics
from .cache import sigma_fingerprint

#: the file format emitted by :func:`write_kb_file`
KB_FORMAT_VERSION = "repro-kb/v2"

#: the previous format, still accepted on load via :func:`upgrade_v1_payload`
KB_FORMAT_V1 = "repro-kb/v1"

#: every format :func:`parse_kb_text` accepts
SUPPORTED_KB_FORMATS = (KB_FORMAT_V1, KB_FORMAT_VERSION)


class KnowledgeBaseFormatError(ValueError):
    """Raised when a KB file is malformed or has an unsupported version."""


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def _term_to_json(term: Term) -> Dict[str, str]:
    if isinstance(term, Variable):
        return {"v": term.name}
    if isinstance(term, Constant):
        return {"c": term.name}
    raise KnowledgeBaseFormatError(
        f"only variables and constants can be persisted, got {term!r}"
    )


def _atom_to_json(atom: Atom) -> Dict[str, object]:
    return {
        "p": atom.predicate.name,
        "args": [_term_to_json(arg) for arg in atom.args],
    }


def _tgd_to_json(tgd: TGD) -> Dict[str, object]:
    return {
        "body": [_atom_to_json(atom) for atom in tgd.body],
        "head": [_atom_to_json(atom) for atom in tgd.head],
    }


def _rule_to_json(rule: Rule) -> Dict[str, object]:
    return {
        "body": [_atom_to_json(atom) for atom in rule.body],
        "head": _atom_to_json(rule.head),
    }


def _content_digest(tgds_json: object, rules_json: object) -> str:
    """Integrity digest over the logical content (Σ and rew(Σ)) of a KB file."""
    canonical = json.dumps(
        {"tgds": tgds_json, "datalog_rules": rules_json},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def fact_segments_payload(facts: Iterable[Atom]) -> Dict[str, object]:
    """The ``fact_segments`` block: a term table plus per-predicate segments.

    Terms are mapped to dense IDs in first-appearance order over the facts
    sorted textually (so the payload is deterministic); each predicate
    segment stores its rows as one flat space-separated ID string — ``arity
    × count`` integers — which is both compact on disk and cheap to split
    lazily on load.  Only constants can appear in persisted facts, mirroring
    :func:`_term_to_json`.
    """
    term_ids: Dict[Term, int] = {}
    names: List[str] = []
    rows_by_predicate: Dict[Predicate, List[int]] = {}
    counts: Dict[Predicate, int] = {}
    for fact in sorted(set(facts), key=str):
        if not fact.is_ground:
            raise KnowledgeBaseFormatError(
                f"only ground facts can be persisted, got {fact!r}"
            )
        flat = rows_by_predicate.setdefault(fact.predicate, [])
        counts[fact.predicate] = counts.get(fact.predicate, 0) + 1
        for arg in fact.args:
            if not isinstance(arg, Constant):
                raise KnowledgeBaseFormatError(
                    f"only constants can be persisted in facts, got {arg!r}"
                )
            term_id = term_ids.get(arg)
            if term_id is None:
                term_id = len(names)
                term_ids[arg] = term_id
                names.append(arg.name)
            flat.append(term_id)
    predicates = {
        f"{predicate.name}/{predicate.arity}": {
            "arity": predicate.arity,
            "count": counts[predicate],
            "rows": " ".join(map(str, rows)),
        }
        for predicate, rows in rows_by_predicate.items()
    }
    return {"terms": names, "predicates": predicates}


def knowledge_base_payload(
    tgds: Sequence[TGD],
    rewriting: RewritingResult,
    facts: Optional[Iterable[Atom]] = None,
) -> Dict[str, object]:
    """The ``repro-kb/v2`` JSON payload for a compiled knowledge base.

    ``facts``, when given, are persisted as the columnar ``fact_segments``
    block (see :func:`fact_segments_payload`).
    """
    tgds_json = [_tgd_to_json(tgd) for tgd in tgds]
    rules_json = [_rule_to_json(rule) for rule in rewriting.datalog_rules]
    payload: Dict[str, object] = {
        "format": KB_FORMAT_VERSION,
        "algorithm": rewriting.algorithm,
        "sigma_fingerprint": sigma_fingerprint(tgds),
        "content_digest": _content_digest(tgds_json, rules_json),
        "tgds": tgds_json,
        "datalog_rules": rules_json,
        "statistics": rewriting.statistics.as_dict(),
        "worked_off_size": rewriting.worked_off_size,
        "completed": rewriting.completed,
    }
    if facts is not None:
        payload["fact_segments"] = fact_segments_payload(facts)
    return payload


def write_kb_file(
    path: "str | Path",
    tgds: Sequence[TGD],
    rewriting: RewritingResult,
    facts: Optional[Iterable[Atom]] = None,
) -> Path:
    """Serialize a compiled knowledge base; returns the path written.

    The JSON is compact, one line with no spaces after separators: an
    indented layout is about 3.5x the size and forces the interpreter's
    pure-Python encoder.  The loader reads either layout.
    """
    target = Path(path)
    payload = knowledge_base_payload(tgds, rewriting, facts)
    target.write_text(
        json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8"
    )
    return target


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
def _term_from_json(data: object) -> Term:
    if isinstance(data, dict):
        if "v" in data:
            return Variable(data["v"])
        if "c" in data:
            return Constant(data["c"])
    raise KnowledgeBaseFormatError(f"malformed term encoding: {data!r}")


def _atom_from_json(data: object) -> Atom:
    if not isinstance(data, dict) or "p" not in data or "args" not in data:
        raise KnowledgeBaseFormatError(f"malformed atom encoding: {data!r}")
    args = tuple(_term_from_json(arg) for arg in data["args"])
    return Atom(Predicate(data["p"], len(args)), args)


def _tgd_from_json(data: object) -> TGD:
    if not isinstance(data, dict) or "body" not in data or "head" not in data:
        raise KnowledgeBaseFormatError(f"malformed TGD encoding: {data!r}")
    return TGD(
        tuple(_atom_from_json(atom) for atom in data["body"]),
        tuple(_atom_from_json(atom) for atom in data["head"]),
    )


def _rule_from_json(data: object) -> Rule:
    if not isinstance(data, dict) or "body" not in data or "head" not in data:
        raise KnowledgeBaseFormatError(f"malformed rule encoding: {data!r}")
    return Rule(
        tuple(_atom_from_json(atom) for atom in data["body"]),
        _atom_from_json(data["head"]),
    )


def _is_json_type(value: object, kind: str) -> bool:
    """Whether a decoded JSON value fits a field annotated ``kind``.

    ``bool`` subclasses ``int`` in Python, so a JSON ``true`` is no count;
    and ``json`` reads ``NaN`` and ``Infinity``, which are no real numbers.
    """
    if kind == "bool":
        return isinstance(value, bool)
    if kind == "str":
        return isinstance(value, str)
    if isinstance(value, bool):
        return False
    if kind == "float" and isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int)


def _field(payload: Dict[str, object], name: str, kind: str, default: object) -> object:
    """A top-level payload field, type-checked; ``default`` when absent."""
    if name not in payload:
        return default
    value = payload[name]
    if not _is_json_type(value, kind):
        raise KnowledgeBaseFormatError(f"{name} must be of type {kind}, got {value!r}")
    return value


def _statistics_from_json(data: object) -> SaturationStatistics:
    """The statistics block; keys that are not fields (such as the retired
    ``inferences``) are ignored."""
    if not isinstance(data, dict):
        raise KnowledgeBaseFormatError(f"malformed statistics block: {data!r}")
    statistics = SaturationStatistics()
    for spec in fields(SaturationStatistics):
        value = _field(data, spec.name, spec.type, getattr(statistics, spec.name))
        setattr(statistics, spec.name, value)
    return statistics


class FactSegments:
    """Lazily decoded per-predicate fact segments from a ``repro-kb/v2`` KB.

    The constructor only parses segment *headers* (predicate names, arities,
    row counts) and keeps the flat ID strings verbatim; a predicate's rows
    are split and decoded to interned atoms on first access and cached.
    ``predicates_loaded`` counts the segments actually decoded so far and
    ``load_wall_seconds`` accumulates the wall time spent decoding — the
    lazy-loading test asserts a bound demand query finishes with
    ``predicates_loaded < total_predicates``.  A malformed header raises
    :class:`KnowledgeBaseFormatError` here, and malformed rows raise it on
    first access: no segment decodes to a fact the writer did not store.
    """

    __slots__ = (
        "_term_names",
        "_terms",
        "_segments",
        "_decoded",
        "total_facts",
        "load_wall_seconds",
    )

    def __init__(self, payload: object) -> None:
        start = time.perf_counter()
        if not isinstance(payload, dict):
            raise KnowledgeBaseFormatError(
                f"malformed fact_segments block: {payload!r}"
            )
        names = payload.get("terms", [])
        if not isinstance(names, list) or not all(
            isinstance(name, str) for name in names
        ):
            raise KnowledgeBaseFormatError("fact_segments.terms must be a string list")
        self._term_names: List[str] = names
        self._terms: List[Optional[Constant]] = [None] * len(names)
        self._segments: Dict[Predicate, Dict[str, object]] = {}
        self._decoded: Dict[Predicate, Tuple[Atom, ...]] = {}
        self.total_facts = 0
        blocks = payload.get("predicates", {})
        if not isinstance(blocks, dict):
            raise KnowledgeBaseFormatError(
                "fact_segments.predicates must be an object"
            )
        for key, block in blocks.items():
            if (
                not isinstance(block, dict)
                or not isinstance(block.get("arity"), int)
                or block["arity"] < 0
                or not isinstance(block.get("count"), int)
                or not isinstance(block.get("rows"), str)
            ):
                raise KnowledgeBaseFormatError(
                    f"malformed fact segment {key!r}: {block!r}"
                )
            name, _, arity_text = key.rpartition("/")
            if not name or arity_text != str(block["arity"]):
                raise KnowledgeBaseFormatError(
                    f"fact segment key {key!r} does not match arity {block['arity']!r}"
                )
            count = block["count"]
            # the writer stores a nullary fact at most once
            if count < 0 or (block["arity"] == 0 and count > 1):
                raise KnowledgeBaseFormatError(
                    f"fact segment {key!r} declares an invalid count {count}"
                )
            self._segments[Predicate(name, block["arity"])] = block
            self.total_facts += count
        self.load_wall_seconds = time.perf_counter() - start

    @property
    def total_predicates(self) -> int:
        return len(self._segments)

    @property
    def predicates_loaded(self) -> int:
        return len(self._decoded)

    def predicates(self) -> Tuple[Predicate, ...]:
        return tuple(self._segments)

    def _decode_term(self, term_id: int) -> Constant:
        if not 0 <= term_id < len(self._terms):
            raise KnowledgeBaseFormatError(
                f"fact segment references unknown term ID {term_id}"
            )
        term = self._terms[term_id]
        if term is None:
            term = Constant(self._term_names[term_id])
            self._terms[term_id] = term
        return term

    def relation(self, predicate: Predicate) -> Tuple[Atom, ...]:
        """The facts of one predicate, decoded on first access and cached."""
        atoms = self._decoded.get(predicate)
        if atoms is not None:
            return atoms
        block = self._segments.get(predicate)
        if block is None:
            return ()
        start = time.perf_counter()
        count: int = block["count"]  # type: ignore[assignment]
        arity = predicate.arity
        try:
            ids = [int(token) for token in block["rows"].split()]  # type: ignore[union-attr]
        except ValueError:
            raise KnowledgeBaseFormatError(
                f"fact segment {predicate.name}/{arity} stores a term ID that is "
                "not an integer"
            ) from None
        if len(ids) != arity * count:
            raise KnowledgeBaseFormatError(
                f"fact segment {predicate.name}/{arity} declares {count} rows "
                f"but stores {len(ids)} IDs"
            )
        if arity == 0:
            atoms = (Atom(predicate, ()),) * count
        else:
            decode = self._decode_term
            atoms = tuple(
                Atom(
                    predicate,
                    tuple(decode(ids[base + offset]) for offset in range(arity)),
                )
                for base in range(0, len(ids), arity)
            )
        self._decoded[predicate] = atoms
        self.load_wall_seconds += time.perf_counter() - start
        return atoms

    def facts_for(self, predicates: Iterable[Predicate]) -> Iterator[Atom]:
        """Facts of the given predicates only — the demand-query hook."""
        for predicate in predicates:
            yield from self.relation(predicate)

    def all_facts(self) -> Iterator[Atom]:
        return self.facts_for(self._segments)

    def __iter__(self) -> Iterator[Atom]:
        return self.all_facts()

    def __len__(self) -> int:
        return self.total_facts

    def stats(self) -> Dict[str, object]:
        """Segment-tier counters: predicates decoded so far and decode time."""
        return {
            "total_predicates": self.total_predicates,
            "predicates_loaded": self.predicates_loaded,
            "total_facts": self.total_facts,
            "load_wall_seconds": round(self.load_wall_seconds, 6),
        }


def upgrade_v1_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Compatibility shim: rewrite a ``repro-kb/v1`` payload to v2 form.

    v1 and v2 share every rule/TGD/integrity field; v2 only *adds* the
    optional ``fact_segments`` block.  Upgrading therefore amounts to
    restamping the format — the integrity digests cover the logical content,
    not the format string, so they survive unchanged.  The input is not
    mutated; re-saving an upgraded KB writes a clean v2 file (round-trip
    ``v1 → load → save → v2 → load`` is covered by the persistence tests).
    """
    upgraded = dict(payload)
    upgraded["format"] = KB_FORMAT_VERSION
    return upgraded


def parse_kb_text(
    text: str,
) -> Tuple[Tuple[TGD, ...], RewritingResult, Optional[FactSegments]]:
    """Decode the text of a KB file (v1 or v2) into ``(tgds, rewriting, segments)``.

    Both integrity fields are mandatory and re-verified: the content digest
    covers Σ *and* the Datalog rewriting (the part queries actually use), and
    the Σ fingerprint is recomputed from the decoded TGDs.  Any mismatch
    means the file was edited or corrupted and is rejected, as is a field
    of the wrong JSON type.  ``segments`` is the lazy
    :class:`FactSegments` view, or ``None`` when the file stores no facts.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise KnowledgeBaseFormatError(f"KB file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise KnowledgeBaseFormatError("KB file does not contain a JSON object")
    version = payload.get("format")
    if version not in SUPPORTED_KB_FORMATS:
        raise KnowledgeBaseFormatError(
            f"unsupported KB format {version!r}; this build reads "
            f"{', '.join(repr(fmt) for fmt in SUPPORTED_KB_FORMATS)}"
        )
    if version == KB_FORMAT_V1:
        payload = upgrade_v1_payload(payload)
    digest = payload.get("content_digest")
    if digest is None:
        raise KnowledgeBaseFormatError("KB file is missing content_digest")
    if digest != _content_digest(
        payload.get("tgds", []), payload.get("datalog_rules", [])
    ):
        raise KnowledgeBaseFormatError(
            "content_digest does not match the stored TGDs/rules; file corrupted?"
        )
    tgds = tuple(_tgd_from_json(tgd) for tgd in payload.get("tgds", ()))
    recorded = payload.get("sigma_fingerprint")
    if recorded is None:
        raise KnowledgeBaseFormatError("KB file is missing sigma_fingerprint")
    if recorded != sigma_fingerprint(tgds):
        raise KnowledgeBaseFormatError(
            "sigma_fingerprint does not match the stored TGDs; file corrupted?"
        )
    rules = tuple(
        _rule_from_json(rule) for rule in payload.get("datalog_rules", ())
    )
    rewriting = RewritingResult(
        algorithm=_field(payload, "algorithm", "str", "?"),
        datalog_rules=rules,
        statistics=_statistics_from_json(payload.get("statistics", {})),
        worked_off_size=_field(payload, "worked_off_size", "int", len(rules)),
        completed=_field(payload, "completed", "bool", True),
    )
    segments_json = payload.get("fact_segments")
    segments = None if segments_json is None else FactSegments(segments_json)
    return tgds, rewriting, segments
