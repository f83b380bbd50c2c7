"""Σ fingerprinting and the in-process compile cache.

The fingerprint reuses the interned canonical clause forms introduced for
subsumption (PR 1): every TGD is brought into canonical-variable form
(:func:`repro.logic.normal_form.normalize_tgd`, cached on the interned
clause, so re-fingerprinting a Σ that was fingerprinted before does no
clause work) and the sorted canonical clause strings are hashed.  Two Σs
that differ only in clause order or variable naming therefore fingerprint
identically and share one cache entry; the cached rewriting is semantically
equivalent for both (same certain answers on every instance).

Only *completed* rewritings are cached — a run cut short by a timeout or a
clause limit is not a function of Σ alone.

Concurrency and fork semantics
------------------------------

All cache state (the entry dict and the hit/miss counters) is guarded by a
module-level lock, so the cache is safe to share between the serving
front end's threads (``asyncio.to_thread`` executors, the TCP handler) and
any other thread compiling knowledge bases.  The lock is *not* held while a
missing Σ is rewritten — saturation can take seconds, and serializing
compilations behind one lock would defeat the worker tier; two threads
racing to compile the same Σ simply both compile it and the second insert
wins (idempotent: both results are equivalent functions of Σ).

The cache is **per-process** by design.  The serving worker pool
(:mod:`repro.serve.workers`) relies on that: with the ``fork`` start method
children inherit a snapshot of the parent's warm cache (a free warm start);
with ``spawn`` they start cold and warm up independently.  Either way no
synchronization crosses the process boundary — workers report their own
cache counters through :func:`compile_cache_stats`, which the server's
stats endpoint aggregates per pid.  To keep fork safe, the lock is only
ever held for quick dict operations (never across a rewrite), so a child
forked mid-operation cannot inherit a lock that guards a half-finished
compilation.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..logic.normal_form import normalize_tgd
from ..logic.tgd import TGD
from ..obs import HitCounters
from ..rewriting.base import RewritingResult, RewritingSettings
from ..rewriting.rewriter import rewrite

#: bound on the number of cached rewritings; oldest entries fall out first
COMPILE_CACHE_LIMIT = 128

_CacheKey = Tuple[str, str, RewritingSettings]
_cache: Dict[_CacheKey, RewritingResult] = {}
_counters = HitCounters()
#: guards ``_cache`` and ``_counters``; held only for dict/counter ops,
#: never across a rewrite (see the module docstring's fork notes)
_cache_lock = threading.RLock()


def sigma_fingerprint(tgds: Iterable[TGD]) -> str:
    """A canonical hex fingerprint of a finite set of GTGDs.

    Invariant under clause order and variable naming: clauses are normalized
    to canonical-variable form and sorted before hashing.
    """
    canonical = sorted(str(normalize_tgd(tgd)) for tgd in tgds)
    digest = hashlib.sha256("\n".join(canonical).encode("utf-8"))
    return digest.hexdigest()


def cached_rewrite(
    tgds: Sequence[TGD],
    algorithm: str = "hypdr",
    settings: Optional[RewritingSettings] = None,
) -> Tuple[RewritingResult, str]:
    """Rewrite Σ, serving repeated compilations from the in-process cache.

    Returns ``(result, fingerprint)``.  The cache key is the Σ fingerprint
    together with the algorithm name and the (hashable) settings, so the
    same Σ compiled under different knobs is measured separately.

    Thread-safe; concurrent misses on the same key may compile twice (the
    lock is deliberately not held during saturation) but converge on one
    equivalent entry.
    """
    effective = settings if settings is not None else RewritingSettings()
    fingerprint = sigma_fingerprint(tgds)
    key = (fingerprint, algorithm.lower(), effective)
    with _cache_lock:
        cached = _cache.get(key)
        if cached is not None:
            _counters.hits += 1
            return cached, fingerprint
        _counters.misses += 1
    result = rewrite(tgds, algorithm=algorithm, settings=settings)
    if result.completed:
        with _cache_lock:
            while len(_cache) >= COMPILE_CACHE_LIMIT:
                _cache.pop(next(iter(_cache)))
            _cache[key] = result
    return result, fingerprint


def compile_cache_stats() -> Dict[str, object]:
    """Hit/miss counters and current size of the compile caches.

    ``engine_cache_entries`` counts the shared plan-compiled Datalog engines
    (:func:`repro.datalog.engine.compiled_engine`) — the downstream half of
    "compile once, serve many": the rewriting cache avoids re-saturating Σ,
    the engine cache avoids re-compiling its join plans.

    Counters are per-process (see the module docstring); the serving stats
    endpoint reports one block per worker pid.
    """
    from ..datalog.engine import _ENGINE_CACHE

    with _cache_lock:
        stats = {"entries": len(_cache), **_counters.snapshot()}
    stats["engine_cache_entries"] = len(_ENGINE_CACHE)
    return stats


def clear_compile_cache() -> None:
    """Empty the compile caches (rewritings and compiled engines) and zero
    the counters (tests, benchmarks)."""
    from ..datalog.engine import clear_engine_cache

    with _cache_lock:
        _cache.clear()
        _counters.reset()
    clear_engine_cache()
