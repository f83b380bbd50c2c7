"""Hash-consing bookkeeping shared by the interned term/atom constructors.

Every structural class of the logic substrate (constants, variables, nulls,
function symbols, functional terms, predicates, atoms) is *interned*:
constructing a value that was constructed before returns the very same
object.  Consequences exploited throughout the saturation hot path:

* structural equality coincides with object identity (``a == b`` iff
  ``a is b``), so set/dict operations degenerate to pointer comparisons;
* hashes are computed once per distinct value, ever;
* derived per-value caches (variable sets, groundness flags) are shared by
  every occurrence of the value.

This module holds one :class:`~repro.obs.HitCounters` block per interned
kind, which the constructors bump on every lookup and which the benchmark
reports as the *interning hit rate* (:func:`intern_stats` merges the kinds
into ``overall``), plus the cache-clearing entry points used by
long-running processes and tests.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, List

from ..obs import HitCounters


_counters: Dict[str, HitCounters] = {}
_cache_clearers: List[Callable[[], None]] = []

#: Safety valve for long-lived processes: when one intern table reaches this
#: many entries, its oldest half is dropped before the next insert.  Losing
#: canonical representatives is harmless for correctness — every equality
#: check falls back to structural comparison — it only forfeits
#: identity-dedup for the evicted (oldest, least likely still live) values.
INTERN_TABLE_LIMIT = 1_000_000


def maybe_evict(cache: Dict) -> None:
    """Drop the oldest half of an intern table past :data:`INTERN_TABLE_LIMIT`.

    Dicts iterate in insertion order, so this is a generational eviction:
    long-lived values (predicates, input-signature terms) re-intern on next
    use and migrate to the young half, while transient saturation garbage is
    what actually falls out.
    """
    if len(cache) >= INTERN_TABLE_LIMIT:
        for key in list(islice(iter(cache), len(cache) // 2)):
            del cache[key]


def counter(kind: str) -> HitCounters:
    """Return (creating on demand) the counter for one interned kind."""
    existing = _counters.get(kind)
    if existing is None:
        existing = _counters[kind] = HitCounters()
    return existing


def register_cache_clearer(clearer: Callable[[], None]) -> None:
    """Register a callback that empties one intern table."""
    _cache_clearers.append(clearer)


def intern_stats() -> Dict[str, Dict[str, object]]:
    """Per-kind hit/miss statistics plus an aggregate ``overall`` entry."""
    stats = {kind: ctr.snapshot() for kind, ctr in sorted(_counters.items())}
    overall = HitCounters()
    for ctr in _counters.values():
        overall.merge(ctr)
    stats["overall"] = overall.snapshot()
    return stats


def reset_intern_counters() -> None:
    """Zero every hit/miss counter (the intern tables are kept)."""
    for ctr in _counters.values():
        ctr.reset()


def clear_intern_tables() -> None:
    """Empty every intern table, keeping the hit/miss counters.

    Existing objects stay valid and keep their cached hashes; they merely
    stop being the canonical representative, so identity-equality with
    later-constructed equal values is no longer guaranteed.  Call only at
    quiescent points (between benchmark runs, in test teardown).
    """
    for clearer in _cache_clearers:
        clearer()


def clear_intern_caches() -> None:
    """Empty every intern table and zero the counters (see clear_intern_tables)."""
    clear_intern_tables()
    reset_intern_counters()
