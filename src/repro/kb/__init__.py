"""Persistent compiled knowledge bases: save/load and the compile cache.

The expensive part of the pipeline — saturating Σ into ``rew(Σ)`` — depends
only on Σ, so compiled :class:`~repro.api.KnowledgeBase` objects are cached
and serialized as first-class artifacts:

* :mod:`.format` persists a compiled knowledge base to a **versioned JSON
  file** and restores it in another process;
* :mod:`.cache` fingerprints Σ (order- and variable-name-insensitively, via
  the interned canonical clause forms) and keeps an in-process cache of
  compiled rewritings, so repeated ``KnowledgeBase.compile`` calls under the
  same Σ are free.

KB file format (``repro-kb/v2``)
--------------------------------

A saved knowledge base is one JSON object with the fields

``format``
    The literal string ``"repro-kb/v2"``.  ``"repro-kb/v1"`` files are still
    accepted and upgraded in memory (:func:`.format.upgrade_v1_payload` —
    v2 only *adds* the optional ``fact_segments`` block, every shared field
    is unchanged); other values are rejected, and the major version is
    bumped whenever a field changes meaning.
``algorithm``
    The inference rule that produced the rewriting (``"ExbDR"``, ...).
``sigma_fingerprint``
    Hex fingerprint of the canonicalized Σ (:func:`.cache.sigma_fingerprint`);
    used for cache keying and re-verified against the decoded TGDs on load.
``content_digest``
    SHA-256 over the serialized ``tgds`` *and* ``datalog_rules`` sections;
    re-verified on load so a tampered or truncated rewriting is rejected.
    Both integrity fields are mandatory.
``tgds``
    The input GTGDs as a list of structural atom encodings (see below).
``datalog_rules``
    The rewriting ``rew(Σ)`` as a list of ``{"body": [atom...], "head": atom}``
    objects.
``statistics``
    The :class:`~repro.rewriting.base.SaturationStatistics` counters of the
    compiling run.
``worked_off_size`` / ``completed``
    The remaining :class:`~repro.rewriting.base.RewritingResult` fields.
``fact_segments`` *(optional, v2)*
    A columnar base-instance payload: ``terms`` (constant names in term-ID
    order) and ``predicates`` mapping ``"Name/arity"`` to ``{"arity",
    "count", "rows"}`` where ``rows`` is the flat space-separated term-ID
    string of all rows.  Loaded lazily per predicate
    (:class:`.format.FactSegments`) so demand queries touch only the
    segments their magic program probes.

Atoms are encoded as ``{"p": predicate_name, "args": [term...]}`` and terms
as ``{"v": name}`` (variable) or ``{"c": name}`` (constant) — input GTGDs and
Datalog rewritings are function-free, so no other term kinds occur.
"""

from .cache import (
    cached_rewrite,
    clear_compile_cache,
    compile_cache_stats,
    sigma_fingerprint,
)
from .format import (
    KB_FORMAT_V1,
    KB_FORMAT_VERSION,
    SUPPORTED_KB_FORMATS,
    FactSegments,
    KnowledgeBaseFormatError,
    knowledge_base_payload,
    parse_kb_text,
    upgrade_v1_payload,
    write_kb_file,
)

__all__ = [
    "KB_FORMAT_V1",
    "KB_FORMAT_VERSION",
    "SUPPORTED_KB_FORMATS",
    "FactSegments",
    "KnowledgeBaseFormatError",
    "cached_rewrite",
    "clear_compile_cache",
    "compile_cache_stats",
    "knowledge_base_payload",
    "parse_kb_text",
    "sigma_fingerprint",
    "upgrade_v1_payload",
    "write_kb_file",
]
