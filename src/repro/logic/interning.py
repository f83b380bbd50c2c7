"""Hash-consing: the one mechanism behind every interned class of the logic layer.

Nine structural classes are *interned*: constants, variables, nulls,
function symbols, functional terms, predicates, atoms, TGDs and rules.
Constructing a value that was constructed before returns the very same
object.  Consequences exploited throughout the saturation hot path:

* structural equality coincides with object identity (``a == b`` iff
  ``a is b``), so set/dict operations degenerate to pointer comparisons;
* hashes are computed once per distinct value, ever;
* derived per-value caches (variable sets, groundness flags, guards,
  renamings) are shared by every occurrence of the value.

Each class derives from :class:`Interned` and names its counter key and
hash tag in the class statement (``class Atom(Interned, kind="atom",
tag="atom")``).  The base owns what the classes share: the per-class table
and :class:`~repro.obs.HitCounters` block, the miss path (build, the
class's ``_setup``, count, evict, store), a structural ``__eq__`` and a
``__reduce__`` over the stored key, and the hash ``hash((tag,) + key)``.
The key is the tuple of constructor arguments, so a pickled or deep-copied
value re-interns on load.

Two things stay per class, on purpose:

* the hit path, a short ``__new__`` that builds the key, returns the
  table's object and counts the hit, with no further call.  Most lookups
  hit (87% in an ExbDR pass over the benchmark's compile corpus), so only
  the miss path is shared;
* ``__hash__``, two lines per class.  Answering and serving hash far more
  often than they construct, and a ``__hash__`` shared by nine classes
  makes its ``self._hash`` load polymorphic, which CPython 3.11 leaves
  unspecialized: filling sets and dicts with a mix of interned values took
  about 30% longer with one shared ``__hash__`` than with one per class.

:func:`intern_stats` reports the counters per kind and merged into
``overall`` (the benchmark's *interning hit rate*); the clearing entry
points serve long-running processes and tests.
"""

from __future__ import annotations

from itertools import islice
from typing import ClassVar, Dict, List, Tuple

from ..obs import HitCounters


_counters: Dict[str, HitCounters] = {}
_tables: List[Dict[tuple, "Interned"]] = []

#: Safety valve for long-lived processes: when one intern table reaches this
#: many entries, its oldest half is dropped before the next insert.  Dicts
#: iterate in insertion order, so this is a generational eviction:
#: long-lived values (predicates, input-signature terms) re-intern on next
#: use and migrate to the young half, while transient saturation garbage is
#: what falls out.  Losing canonical representatives is harmless for
#: correctness — every equality check falls back to structural comparison —
#: it only forfeits identity-dedup for the evicted values.
INTERN_TABLE_LIMIT = 1_000_000


class Interned:
    """Base of the hash-consed classes (see the module docstring).

    A subclass lists its own fields in ``__slots__``, fills them (and
    validates its arguments) in ``_setup``, and writes the hit path::

        def __new__(cls, name, arity):
            key = (name, arity)
            interned = cls._interned.get(key)
            if interned is None:
                return cls._intern(key)
            cls._counter.hits += 1
            return interned

        def __hash__(self):
            return self._hash
    """

    __slots__ = ("_key", "_hash")

    _tag: ClassVar[str]
    _interned: ClassVar[Dict[tuple, "Interned"]]
    _counter: ClassVar[HitCounters]

    def __init_subclass__(cls, *, kind: str, tag: str, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._tag = tag
        cls._interned = {}
        _tables.append(cls._interned)
        cls._counter = _counters[kind] = HitCounters()

    @classmethod
    def _intern(cls, key: tuple):
        """The miss path: build the value for ``key``, count it and store it."""
        self = object.__new__(cls)
        self._key = key
        self._hash = hash((cls._tag,) + key)
        self._setup(*key)
        cls._counter.misses += 1
        table = cls._interned
        if len(table) >= INTERN_TABLE_LIMIT:
            for stale in list(islice(table, len(table) // 2)):
                del table[stale]
        table[key] = self
        return self

    def _setup(self, *fields: object) -> None:
        """Fill the class's own slots from the key's fields, validating them."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return self is other or (
            type(other) is type(self)
            and self._hash == other._hash
            and self._key == other._key
        )

    def __reduce__(self) -> Tuple[type, tuple]:
        return (type(self), self._key)


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
    for table in _tables:
        table.clear()


def clear_intern_caches() -> None:
    """Empty every intern table and zero the counters (see clear_intern_tables)."""
    clear_intern_tables()
    reset_intern_counters()
