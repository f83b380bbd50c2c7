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
  issued it.  Rows never travel between stores un-decoded (``copy()``
  clones the table precisely so the clone's rows stay valid).
* **IDs are dense and never reused.**  The table is append-only: the
  ``n``-th distinct term encoded gets ID ``n``, and removing facts never
  removes IDs.  DRed relies on this — rows removed during over-deletion
  still decode correctly when the re-derivation pass re-admits them.
* **Decode only at boundaries.**  Everything between "facts enter the
  store" and "answers/materializations leave it" — semi-naive deltas,
  hash-join probes, head projection, DRed bookkeeping — stays in row
  space.  Decoding back to interned :class:`~repro.logic.atoms.Atom`
  objects happens only in the answer projection, the Skolem-term head
  builders of the chase, and the whole-store views (``facts()``,
  iteration, ``relation()``).
* **Only ground terms are encoded.**  Variables never enter the table;
  non-ground facts are rejected exactly as the object-encoded store did.

The base/derived bookkeeping contract (DRed support) is unchanged from the
previous object-encoded store: base facts are the caller-asserted EDB
(``base_facts() ⊆ facts()``), a fact can be base *and* derivable, and
removing a fact discards its base mark.
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
from ..logic.substitution import Substitution
from ..logic.terms import Term, Variable

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


class TermTable:
    """An append-only bidirectional term ↔ dense-int-ID map (store-local).

    ``encode_calls``/``decode_calls`` count boundary crossings for the perf
    harness's ``fact_store`` stats block; they are bookkeeping, not caches.
    """

    __slots__ = ("_ids", "_terms", "encode_calls", "decode_calls")

    def __init__(self) -> None:
        self._ids: Dict[Term, int] = {}
        self._terms: List[Term] = []
        self.encode_calls = 0
        self.decode_calls = 0

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: Term) -> bool:
        return term in self._ids

    def encode(self, term: Term) -> int:
        """The ID of a ground term, issuing a fresh one on first sight."""
        self.encode_calls += 1
        term_id = self._ids.get(term)
        if term_id is None:
            term_id = len(self._terms)
            self._ids[term] = term_id
            self._terms.append(term)
        return term_id

    def lookup(self, term: Term) -> Optional[int]:
        """The ID of a term, or ``None`` — never issues a new ID.

        A ``None`` is a strong fact: no stored row can mention the term, so
        probes can short-circuit to empty instead of hashing anything.
        """
        return self._ids.get(term)

    def decode(self, term_id: int) -> Term:
        self.decode_calls += 1
        return self._terms[term_id]

    def decode_args(self, row: Sequence[int]) -> Tuple[Term, ...]:
        self.decode_calls += len(row)
        terms = self._terms
        return tuple(terms[term_id] for term_id in row)

    def decode_column(self, column: Sequence[int]) -> List[Term]:
        self.decode_calls += len(column)
        terms = self._terms
        return [terms[term_id] for term_id in column]

    def copy(self) -> "TermTable":
        clone = TermTable.__new__(TermTable)
        clone._ids = dict(self._ids)
        clone._terms = list(self._terms)
        clone.encode_calls = self.encode_calls
        clone.decode_calls = self.decode_calls
        return clone


class FactStore:
    """An indexed set of ground facts, stored as ID-encoded int rows.

    Two API layers share the same storage:

    * the **atom layer** (``add``/``remove``/``__contains__``/``facts()``/
      ``relation()``/``candidates()``…) — the historical interface; it
      encodes/decodes at the call boundary and exists for callers that
      genuinely live in term space (tests, snapshots, reference checks);
    * the **row layer** (``add_row``/``remove_row``/``relation_rows``/
      ``key_index``/``mark_base_row``…) — what the engine, the plan
      executor, and the chase use; nothing here touches a term object.

    See the module docstring for the ID-encoding invariants and the
    base/derived (DRed) bookkeeping contract.
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
        # (predicate, row) pairs asserted by the caller rather than inferred
        self._base: Set[Tuple[Predicate, Row]] = set()
        self._size = 0
        self.add_all(facts, base=True)

    # ------------------------------------------------------------------
    # encoding boundary
    # ------------------------------------------------------------------
    def encode_fact(self, fact: Atom) -> Tuple[Predicate, Row]:
        """Encode a ground fact to ``(predicate, row)``, issuing IDs as needed."""
        if not fact.is_ground:
            raise ValueError(f"fact stores hold ground facts only, got {fact}")
        encode = self.terms.encode
        return fact.predicate, tuple(encode(term) for term in fact.args)

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

    def decode_row(self, predicate: Predicate, row: Row) -> Atom:
        """The interned atom of a row (the decode boundary)."""
        return Atom(predicate, self.terms.decode_args(row))

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
        self._base.discard((predicate, row))
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
        pair = (predicate, row)
        if pair in self._base:
            return False
        self._base.add(pair)
        return True

    def unmark_base_row(self, predicate: Predicate, row: Row) -> bool:
        pair = (predicate, row)
        if pair in self._base:
            self._base.discard(pair)
            return True
        return False

    def is_base_row(self, predicate: Predicate, row: Row) -> bool:
        return (predicate, row) in self._base

    # ------------------------------------------------------------------
    # atom-layer mutation
    # ------------------------------------------------------------------
    def add(self, fact: Atom) -> bool:
        """Add a fact; return ``True`` if it was new."""
        predicate, row = self.encode_fact(fact)
        return self.add_row(predicate, row)

    def add_all(self, facts: Iterable[Atom], base: bool = False) -> int:
        """Add many facts; return how many were new.

        With ``base=True`` every fact is also marked base — including facts
        already present as derived, which an assertion promotes to base.
        """
        added = 0
        for fact in facts:
            predicate, row = self.encode_fact(fact)
            if self.add_row(predicate, row):
                added += 1
            if base:
                self._base.add((predicate, row))
        return added

    def mark_base(self, fact: Atom) -> bool:
        """Mark a stored fact as base; return ``True`` if it was derived before."""
        found = self.find_fact(fact)
        if found is None:
            raise KeyError(f"cannot mark a fact not in the store as base: {fact}")
        return self.mark_base_row(*found)

    def unmark_base(self, fact: Atom) -> bool:
        """Demote a fact from base to derived; return ``True`` if it was base."""
        found = self.find_fact(fact)
        if found is None:
            return False
        return self.unmark_base_row(*found)

    def remove(self, fact: Atom) -> bool:
        """Remove a fact, maintaining every index; return ``True`` if present."""
        found = self.find_fact(fact)
        if found is None:
            return False
        return self.remove_row(*found)

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

    def is_base(self, fact: Atom) -> bool:
        """``True`` if the fact was asserted (not merely derived)."""
        found = self.find_fact(fact)
        return found is not None and found in self._base

    @property
    def base_count(self) -> int:
        return len(self._base)

    @property
    def derived_count(self) -> int:
        """Stored facts that are not base (inferred-only)."""
        return self._size - len(self._base)

    def base_facts(self) -> FrozenSet[Atom]:
        """The asserted (EDB) facts — what a from-scratch rebuild would start from."""
        decode = self.terms.decode_args
        return frozenset(
            Atom(predicate, decode(row)) for predicate, row in self._base
        )

    def predicates(self) -> Tuple[Predicate, ...]:
        return tuple(self._rows)

    def relation(self, predicate: Predicate) -> FrozenSet[Atom]:
        decode = self.terms.decode_args
        return frozenset(
            Atom(predicate, decode(row)) for row in self._rows.get(predicate, ())
        )

    def relation_facts(self, predicate: Predicate) -> Iterator[Atom]:
        """The relation of a predicate, decoded row by row (atom layer)."""
        decode = self.terms.decode_args
        for row in self._rows.get(predicate, ()):
            yield Atom(predicate, decode(row))

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

    def candidates(
        self, atom: Atom, substitution: Optional[Substitution] = None
    ) -> Iterable[Atom]:
        """Facts that could match the (possibly partially bound) atom.

        The most selective single-column index bucket available under the
        current substitution is used (indexes are built lazily per probed
        position and then maintained); if no argument is bound, the whole
        relation is decoded.  A bound term the table has never seen means
        no fact can match — the probe short-circuits to empty.
        """
        relation = self._rows.get(atom.predicate)
        if not relation:
            return ()
        best: Optional[List[Row]] = None
        for position, arg in enumerate(atom.args):
            term: Optional[Term]
            if isinstance(arg, Variable):
                term = substitution.get(arg) if substitution else None
            else:
                term = arg
            if term is None or not term.is_ground:
                continue
            term_id = self.terms.lookup(term)
            if term_id is None:
                return ()
            bucket = self.key_index(atom.predicate, (position,)).get(term_id)
            if bucket is None:
                return ()
            if best is None or len(bucket) < len(best):
                best = bucket
        rows = relation if best is None else best
        decode = self.terms.decode_args
        return [Atom(atom.predicate, decode(row)) for row in rows]

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
        clone._base = set(self._base)
        clone._size = self._size
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
            "encode_calls": self.terms.encode_calls,
            "decode_calls": self.terms.decode_calls,
        }
