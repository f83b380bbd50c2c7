"""Retraction-aware LRU answer cache keyed on interned query fingerprints.

The cache maps ``(kb_key, query_fingerprint)`` to an encoded answer list
(:func:`repro.serve.protocol.encode_answers`) stamped with the *generation*
of the knowledge base it was computed against.  Every ``add_facts`` /
``retract_facts`` bumps the KB's generation (:meth:`AnswerCache.invalidate`,
which the server calls at the moment a mutation enters the per-KB op log),
so an entry from an older generation can never be served again: lookups
compare the entry's stamp against the KB's current generation and treat a
mismatch as a miss, dropping the stale entry.  This closes the retraction-aware-caching gap
left open by incremental retraction — a retraction invalidates exactly
like an addition, because *any* mutation may change any query's certain
answers.

Query fingerprints are canonical up to variable renaming: ``A(?x),B(?x)``
and ``A(?u),B(?u)`` share one entry.  Fingerprinting is memoized on the
(interned, hashable) query objects via ``lru_cache``, so the per-request
cost after the first sighting is one dict probe.

The cache is thread-safe (one lock around the ordered dict and counters);
the event loop, ``asyncio.to_thread`` executors, and tests can share one
instance.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..datalog.query import ConjunctiveQuery
from ..logic.terms import Variable
from ..obs import HitCounters

#: default bound on cached answer sets; the oldest (least recently used)
#: entries fall out first
DEFAULT_CAPACITY = 1024


@lru_cache(maxsize=8192)
def query_fingerprint(query: ConjunctiveQuery) -> str:
    """A canonical fingerprint of a query, invariant under variable renaming.

    Variables are renamed to ``?v0, ?v1, ...`` in order of first occurrence
    across the answer tuple and the body, so alpha-equivalent queries (same
    atoms, same variable pattern, different names) fingerprint identically
    and share a cache entry.  Atom order is preserved — conjunction is
    commutative, but canonicalizing atom order is graph canonicalization;
    the cheap rename already catches the common aliasing.
    """
    names: Dict[object, str] = {}

    def rename(variable) -> str:
        if variable not in names:
            names[variable] = f"?v{len(names)}"
        return names[variable]

    parts: List[str] = []
    for atom in query.body:
        args = ",".join(
            rename(term) if isinstance(term, Variable) else str(term)
            for term in atom.args
        )
        parts.append(f"{atom.predicate.name}({args})")
    head = ",".join(rename(variable) for variable in query.answer_variables)
    return f"ans({head})<-{';'.join(parts)}"


class _CacheCounters(HitCounters):
    """Lookups, plus entries pushed out, generations bumped and stale
    entries dropped on lookup."""

    __slots__ = ("evictions", "invalidations", "stale_drops")


class AnswerCache:
    """LRU answer cache with per-KB generation invalidation."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        #: (kb_key, query_fp) -> (generation, encoded answers)
        self._entries: "OrderedDict[Tuple[str, str], Tuple[int, List[List[str]]]]"
        self._entries = OrderedDict()
        self._generations: Dict[str, int] = {}
        self._counters = _CacheCounters()

    # ------------------------------------------------------------------
    # generations
    # ------------------------------------------------------------------
    def generation(self, kb_key: str) -> int:
        """The KB's current generation (0 until the first mutation)."""
        with self._lock:
            return self._generations.get(kb_key, 0)

    def invalidate(self, kb_key: str) -> int:
        """Bump the KB's generation; every cached entry for it goes stale.

        O(1): stale entries are not scanned, they are dropped lazily on
        lookup (counted as ``stale_drops``) or pushed out by LRU pressure.
        Returns the new generation.
        """
        with self._lock:
            generation = self._generations.get(kb_key, 0) + 1
            self._generations[kb_key] = generation
            self._counters.invalidations += 1
            return generation

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def get(self, kb_key: str, query_fp: str) -> Optional[List[List[str]]]:
        """The cached answers, or ``None`` on a miss or a stale entry."""
        key = (kb_key, query_fp)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._counters.misses += 1
                return None
            generation, answers = entry
            if generation != self._generations.get(kb_key, 0):
                del self._entries[key]
                self._counters.stale_drops += 1
                self._counters.misses += 1
                return None
            self._entries.move_to_end(key)
            self._counters.hits += 1
            return answers

    def put(
        self,
        kb_key: str,
        query_fp: str,
        generation: int,
        answers: List[List[str]],
    ) -> bool:
        """Insert an answer set computed at ``generation``.

        Refused (returns ``False``) when the KB has moved past that
        generation — an in-flight batch that raced with a mutation must not
        poison the cache with a superseded answer.
        """
        with self._lock:
            if generation != self._generations.get(kb_key, 0):
                return False
            key = (kb_key, query_fp)
            self._entries[key] = (generation, answers)
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._counters.evictions += 1
            return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, object]:
        """Counters for the server's stats endpoint."""
        with self._lock:
            return {
                "capacity": self._capacity,
                "entries": len(self._entries),
                **self._counters.snapshot(),
            }

    def clear(self) -> None:
        """Drop all entries and zero the counters (generations survive)."""
        with self._lock:
            self._entries.clear()
            self._counters.reset()
