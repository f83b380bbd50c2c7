"""Named counters, one mechanism for every layer.

Interning, the match solver, the join plans, sessions, the caches and the
server all count their work the same way.  A block of counters is a
:class:`Counters` subclass that lists its counter names in ``__slots__``
and inherits the rest:

* :meth:`~Counters.reset` zeroes every counter;
* :meth:`~Counters.snapshot` returns a JSON-ready dict of the counters
  followed by the block's derived values;
* :meth:`~Counters.merge` adds another block, or a snapshot of one, into
  this block.  Keys that are not counters, such as a ``hit_rate`` in a
  snapshot, are skipped, so a merged block recomputes its derived values
  over the summed counters.

Counters stay slot attributes because the hot paths (interning, join steps,
the solver) bump them there: ``stats.probes += n`` is one attribute
increment, less than half the cost of a dict-item increment on CPython
3.11.  Two class attributes extend a block:

* ``TALLIES`` names the counters that count per key, a dict of key to
  count (the server's batch-size histogram, for one); a snapshot lists a
  tally sorted by key, with the keys as strings;
* ``DERIVED`` maps a snapshot key to a function of the block, such as a
  hit rate computed by :func:`rate`.
"""

from __future__ import annotations

from typing import Callable, ClassVar, Dict, Mapping, Tuple, Union


def rate(part: float, whole: float) -> float:
    """``part / whole`` rounded to four places, or 0.0 when ``whole`` is 0."""
    return round(part / whole, 4) if whole else 0.0


class Counters:
    """A block of named counters (see the module docstring)."""

    __slots__ = ()
    #: counters that count per key
    TALLIES: ClassVar[Tuple[str, ...]] = ()
    #: snapshot key -> function of the block computing it
    DERIVED: ClassVar[Dict[str, Callable[..., object]]] = {}
    #: every counter name, base classes first (set per subclass)
    names: ClassVar[Tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls.names = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in klass.__dict__.get("__slots__", ())
        )
        cls.reset = _compile_reset(cls.names, cls.TALLIES)  # type: ignore[method-assign]

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter and empty every tally."""
        # every subclass replaces this with its compiled reset

    def snapshot(self) -> Dict[str, object]:
        """The counters, then the derived values, as a JSON-ready dict."""
        values: Dict[str, object] = {}
        for name in self.names:
            value = getattr(self, name)
            if name in self.TALLIES:
                value = {str(key): count for key, count in sorted(value.items())}
            values[name] = value
        for name, derive in self.DERIVED.items():
            values[name] = derive(self)
        return values

    def merge(self, other: Union["Counters", Mapping[str, object]]) -> None:
        """Add ``other``'s counters, a block's or a snapshot dict's, into this block.

        Only this block's counter names are read from ``other``, so derived
        values are skipped.  A tally merged from a snapshot keeps the
        snapshot's string keys.
        """
        if isinstance(other, Counters):
            other = {name: getattr(other, name) for name in other.names}
        for name in self.names:
            value = other.get(name)
            if value is None:
                continue
            if name in self.TALLIES:
                tally = getattr(self, name)
                for key, count in value.items():
                    tally[key] = tally.get(key, 0) + count
            else:
                setattr(self, name, getattr(self, name) + value)


def _compile_reset(
    names: Tuple[str, ...], tallies: Tuple[str, ...]
) -> Callable[[Counters], None]:
    """A block class's ``reset``: one assignment statement per counter.

    Compiled once per class, as :mod:`dataclasses` compiles ``__init__``,
    because query evaluation builds a block per call, and a loop of
    ``setattr`` calls costs about three times as much.
    """
    lines = [
        f"    self.{name} = {{}}" if name in tallies else f"    self.{name} = 0"
        for name in names
    ]
    source = "def reset(self):\n" + "\n".join(lines or ["    pass"]) + "\n"
    namespace: Dict[str, Callable[[Counters], None]] = {}
    exec(source, namespace)
    reset = namespace["reset"]
    reset.__doc__ = Counters.reset.__doc__
    return reset


class HitCounters(Counters):
    """Hits and misses of a cache, with their ``hit_rate``."""

    __slots__ = ("hits", "misses")
    DERIVED = {"hit_rate": lambda block: rate(block.hits, block.hits + block.misses)}
