"""ID-encoded columnar fact storage: the term table and the int-row store.

PR 1 made every term and atom hash-consed, so equality is identity — but
the join pipelines still hashed and moved interned term *objects* through
their batches, paying pointer-chasing and object-hash costs on the hottest
path in the system.  This module finishes the encoding step: a
:class:`TermTable` maps terms to dense integer IDs at the store boundary,
and :class:`FactStore` keeps every relation as a set of *int-tuple rows*
with int-keyed multi-column hash indexes.  The compiled join plans
(:mod:`repro.datalog.plan`) then operate on int columns end-to-end; ints
hash and compare without touching the heap objects at all, and the disk
tier (:mod:`repro.kb.format`'s ``repro-kb/v2`` fact segments) serializes
the same row representation compactly.

ID-encoding invariants
----------------------

* **IDs are store-local.**  Each :class:`FactStore` owns one
  :class:`TermTable`; an ID is meaningful only against the table that
  issued it.  Rows never travel between stores un-decoded (``copy()`` and
  ``base_copy()`` clone the table precisely so the clone's rows stay valid).
* **IDs are dense and never reused.**  The table is append-only: the
  ``n``-th distinct term encoded gets ID ``n``, and removing facts never
  removes IDs: a removed row still decodes correctly, and adding its fact
  back reuses the same IDs.
* **Facts enter row space once, in bulk.**  The constructor and
  :meth:`FactStore.add_base_facts` encode a whole batch of facts, one
  ``map`` over the table's ID dict per fact, and add each relation's rows
  as one set; :meth:`FactStore.encode_fact` (``extend``'s boundary)
  encodes one fact the same way.  Nothing counts terms as they cross.
* **Decode only at boundaries.**  Everything between "facts enter the
  store" and "answers/materializations leave it" — semi-naive deltas,
  hash-join probes, head projection, retraction bookkeeping — stays in row
  space.  Decoding back to interned :class:`~repro.logic.atoms.Atom`
  objects happens only in the answer projection and the whole-store
  views (``facts()``, ``base_facts()``, iteration).
* **Only ground terms are encoded.**  Variables never enter the table:
  issuing an ID rejects a non-ground term, so a non-ground fact raises
  ``ValueError`` exactly as the object-encoded store did.

The base/derived bookkeeping contract (retraction support) is unchanged
from the previous object-encoded store: base facts are the caller-asserted EDB
(``base_facts() ⊆ facts()``), a fact can be base *and* derivable, and
removing a fact discards its base mark.  Base marks are kept per
predicate, as a set of rows beside each relation.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..logic.atoms import Atom, Predicate
from ..logic.terms import Term

#: a stored fact: the term IDs of its arguments, in argument order
Row = Tuple[int, ...]


def row_key(row: Row, positions: Tuple[int, ...]) -> object:
    """The probe key of a row for the given positions.

    Single-column keys are the bare int (no tuple allocation); wider keys
    are tuples of ints.  Int hashing is a single arithmetic op — this is
    the cache-friendly core of the encoding.
    """
    if len(positions) == 1:
        return row[positions[0]]
    return tuple(row[position] for position in positions)


class _IdMap(dict):
    """A term -> ID dict whose missing terms get the next dense ID on read.

    Issuing an ID is where a non-ground term is rejected, so the check
    runs once per distinct term rather than once per fact.
    """

    __slots__ = ("terms",)

    def __missing__(self, term: Term) -> int:
        if not term.is_ground:
            raise ValueError(f"fact stores hold ground facts only, got {term}")
        term_id = self[term] = len(self.terms)
        self.terms.append(term)
        return term_id


class TermTable:
    """An append-only bidirectional term ↔ dense-int-ID map (store-local).

    Encoding is one dict read per term: :meth:`encode_args` maps a whole
    argument tuple through the ID dict, whose ``__missing__`` issues the
    next ID on first sight, and :meth:`lookup` never issues one.  The table
    keeps no counters; what crosses the boundary is not bookkept.
    """

    __slots__ = ("_ids", "_terms")

    def __init__(self) -> None:
        self._terms: List[Term] = []
        self._ids = _IdMap()
        self._ids.terms = self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: Term) -> bool:
        return term in self._ids

    def encode(self, term: Term) -> int:
        """The ID of a ground term, issuing a fresh one on first sight."""
        return self._ids[term]

    def encode_args(self, args: Sequence[Term]) -> Row:
        """The row of an argument tuple of ground terms, issuing IDs as needed."""
        return tuple(map(self._ids.__getitem__, args))

    def lookup(self, term: Term) -> Optional[int]:
        """The ID of a term, or ``None`` — never issues a new ID.

        A ``None`` is a strong fact: no stored row can mention the term, so
        probes can short-circuit to empty instead of hashing anything.
        """
        return self._ids.get(term)

    def decode_args(self, row: Sequence[int]) -> Tuple[Term, ...]:
        return tuple(map(self._terms.__getitem__, row))

    def decode_column(self, column: Sequence[int]) -> List[Term]:
        return list(map(self._terms.__getitem__, column))

    def copy(self) -> "TermTable":
        clone = TermTable.__new__(TermTable)
        clone._terms = list(self._terms)
        clone._ids = _IdMap(self._ids)
        clone._ids.terms = clone._terms
        return clone


class FactStore:
    """An indexed set of ground facts, stored as ID-encoded int rows.

    The **row layer** (``add_row``/``remove_row``/``relation_rows``/
    ``key_index``/``mark_base_row``…) is what the engine and the plan
    executor use; nothing there touches a term object.  Atoms cross the
    **boundary** in a few places only: the constructor and
    ``add_base_facts`` (whose facts are all base, encoded in bulk),
    ``encode_fact``/``find_fact``, ``in``, and the whole-store views
    ``facts()``, ``base_facts()`` and iteration.  A term-space fact set is
    an :class:`~repro.logic.instance.Instance`.

    See the module docstring for the ID-encoding invariants and the
    base/derived (retraction) bookkeeping contract.
    """

    __slots__ = ("terms", "_rows", "_key_indexes", "_base", "_size")

    def __init__(self, facts: Iterable[Atom] = ()) -> None:
        #: the store-local term table; plans read it for constant encoding
        self.terms = TermTable()
        self._rows: Dict[Predicate, Set[Row]] = {}
        # predicate -> positions tuple -> key -> rows; see key_index()
        self._key_indexes: Dict[
            Predicate, Dict[Tuple[int, ...], Dict[object, List[Row]]]
        ] = {}
        # predicate -> its rows asserted by the caller rather than inferred
        self._base: Dict[Predicate, Set[Row]] = {}
        self._size = 0
        self.add_base_facts(facts)

    # ------------------------------------------------------------------
    # encoding boundary
    # ------------------------------------------------------------------
    def add_base_facts(self, facts: Iterable[Atom]) -> None:
        """Encode ground facts in bulk and add them as base facts.

        One pass encodes every fact into its relation's set of new rows.  A
        relation the store holds no rows of (and keeps no index for) takes
        that set as it is; any other gets its rows through :meth:`add_row`.
        Each relation's base marks grow by the same set, so a fact that was
        derived becomes base.
        """
        encode = self.terms._ids.__getitem__
        batches: Dict[Predicate, Set[Row]] = {}
        predicate: Optional[Predicate] = None
        batch: Set[Row] = set()
        for fact in facts:
            # facts mostly arrive grouped by predicate: find the batch only
            # when the predicate changes
            if fact.predicate is not predicate:
                predicate = fact.predicate
                batch = batches.setdefault(predicate, set())
            batch.add(tuple(map(encode, fact.args)))
        for predicate, batch in batches.items():
            if self._rows.get(predicate) or self._key_indexes.get(predicate):
                for row in batch:
                    self.add_row(predicate, row)
            else:
                self._rows[predicate] = batch
                self._size += len(batch)
            marks = self._base.get(predicate)
            if marks is None:
                self._base[predicate] = set(batch)
            else:
                marks.update(batch)

    def encode_fact(self, fact: Atom) -> Tuple[Predicate, Row]:
        """Encode a ground fact to ``(predicate, row)``, issuing IDs as needed."""
        return fact.predicate, self.terms.encode_args(fact.args)

    def find_fact(self, fact: Atom) -> Optional[Tuple[Predicate, Row]]:
        """``(predicate, row)`` of a *stored* fact, or ``None`` — no new IDs."""
        lookup = self.terms.lookup
        row: List[int] = []
        for term in fact.args:
            term_id = lookup(term)
            if term_id is None:
                return None
            row.append(term_id)
        encoded = tuple(row)
        if encoded in self._rows.get(fact.predicate, ()):
            return fact.predicate, encoded
        return None

    # ------------------------------------------------------------------
    # row-layer mutation
    # ------------------------------------------------------------------
    def add_row(self, predicate: Predicate, row: Row) -> bool:
        """Add a row; return ``True`` if it was new.  Maintains every index."""
        relation = self._rows.get(predicate)
        if relation is None:
            relation = self._rows[predicate] = set()
        elif row in relation:
            return False
        relation.add(row)
        key_indexes = self._key_indexes.get(predicate)
        if key_indexes:
            for positions, index in key_indexes.items():
                key = row_key(row, positions)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)
        self._size += 1
        return True

    def remove_row(self, predicate: Predicate, row: Row) -> bool:
        """Remove a row, trimming index buckets; return ``True`` if present.

        Emptied key-index buckets are dropped so later probes stay exact;
        the base mark, if any, is discarded with the row.  Term IDs are
        *not* reclaimed (the table is append-only by contract).
        """
        relation = self._rows.get(predicate)
        if relation is None or row not in relation:
            return False
        relation.discard(row)
        key_indexes = self._key_indexes.get(predicate)
        if key_indexes:
            for positions, index in key_indexes.items():
                key = row_key(row, positions)
                bucket = index.get(key)
                if bucket is not None:
                    try:
                        bucket.remove(row)
                    except ValueError:
                        pass
                    if not bucket:
                        del index[key]
        marks = self._base.get(predicate)
        if marks:
            marks.discard(row)
        self._size -= 1
        return True

    def contains_row(self, predicate: Predicate, row: Row) -> bool:
        return row in self._rows.get(predicate, ())

    def relation_rows(self, predicate: Predicate) -> "Set[Row] | Tuple[()]":
        """The live row set of a relation (no defensive copy; read-only).

        Callers must not mutate the store while iterating; the plan
        executor only reads between mutations, which is exactly the
        semi-naive commit-then-evaluate discipline.
        """
        return self._rows.get(predicate, ())

    def mark_base_row(self, predicate: Predicate, row: Row) -> bool:
        if not self.contains_row(predicate, row):
            raise KeyError(
                f"cannot mark a row not in the store as base: {predicate.name}{row}"
            )
        marks = self._base.get(predicate)
        if marks is None:
            marks = self._base[predicate] = set()
        elif row in marks:
            return False
        marks.add(row)
        return True

    def unmark_base_row(self, predicate: Predicate, row: Row) -> bool:
        marks = self._base.get(predicate)
        if marks is not None and row in marks:
            marks.discard(row)
            return True
        return False

    def is_base_row(self, predicate: Predicate, row: Row) -> bool:
        return row in self._base.get(predicate, ())

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __contains__(self, fact: Atom) -> bool:
        return self.find_fact(fact) is not None

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Atom]:
        decode = self.terms.decode_args
        for predicate, relation in self._rows.items():
            for row in relation:
                yield Atom(predicate, decode(row))

    def facts(self) -> FrozenSet[Atom]:
        return frozenset(self)

    @property
    def base_count(self) -> int:
        return sum(map(len, self._base.values()))

    def base_facts(self) -> FrozenSet[Atom]:
        """The asserted (EDB) facts — what a from-scratch rebuild would start from."""
        decode = self.terms.decode_args
        return frozenset(
            Atom(predicate, decode(row))
            for predicate, rows in self._base.items()
            for row in rows
        )

    def count(self, predicate: Predicate) -> int:
        return len(self._rows.get(predicate, ()))

    def counts_by_predicate(self) -> Dict[Predicate, int]:
        return {pred: len(rel) for pred, rel in self._rows.items()}

    def key_index(
        self, predicate: Predicate, positions: Tuple[int, ...]
    ) -> Dict[object, List[Row]]:
        """The int-keyed hash index of a relation over the given positions.

        Built on first request by a plan step and kept incrementally
        up-to-date by :meth:`add_row`/:meth:`remove_row`; the mapping is
        ``key -> [rows]`` where the key is the bare int for single-column
        indexes and a tuple of ints otherwise (see :func:`row_key`).
        """
        per_predicate = self._key_indexes.get(predicate)
        if per_predicate is None:
            per_predicate = self._key_indexes[predicate] = {}
        index = per_predicate.get(positions)
        if index is None:
            index = {}
            for row in self._rows.get(predicate, ()):
                key = row_key(row, positions)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)
            per_predicate[positions] = index
        return index

    # ------------------------------------------------------------------
    # conversion / introspection
    # ------------------------------------------------------------------
    def copy(self) -> "FactStore":
        """An independent clone: rows, base marks, and the term table.

        The clone shares no mutable state with the original; its rows stay
        valid because the term table travels with them.  Key indexes are
        *not* copied — the clone rebuilds them lazily on first probe.
        """
        clone = FactStore()
        clone.terms = self.terms.copy()
        clone._rows = {pred: set(rel) for pred, rel in self._rows.items()}
        clone._base = {pred: set(rows) for pred, rows in self._base.items()}
        clone._size = self._size
        return clone

    def base_copy(self, predicates: Iterable[Predicate]) -> "FactStore":
        """A new store of this store's base rows of ``predicates``, all base.

        The term table is copied, so the rows keep their IDs and the clone
        issues new ones without touching this store.  Demand evaluation
        runs on such a copy: it reads the base facts of the predicates it
        names and writes only predicates of its own.
        """
        clone = FactStore()
        clone.terms = self.terms.copy()
        for predicate in predicates:
            marks = self._base.get(predicate)
            if marks:
                clone._rows[predicate] = set(marks)
                clone._base[predicate] = set(marks)
                clone._size += len(marks)
        return clone

    def stats(self) -> Dict[str, object]:
        """Size counters: term-table size, rows, key-index entries and memory.

        ``index_memory_bytes`` is an order-of-magnitude estimate (8 bytes
        per row reference in a bucket plus ~64 bytes of dict-entry overhead
        per distinct key), not a measurement.
        """
        index_count = 0
        index_keys = 0
        index_entries = 0
        for per_predicate in self._key_indexes.values():
            for index in per_predicate.values():
                index_count += 1
                index_keys += len(index)
                for bucket in index.values():
                    index_entries += len(bucket)
        return {
            "term_table_size": len(self.terms),
            "rows": self._size,
            "relations": sum(1 for rel in self._rows.values() if rel),
            "key_indexes": index_count,
            "index_entries": index_entries,
            "index_memory_bytes": index_entries * 8 + index_keys * 64,
        }
