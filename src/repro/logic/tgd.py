"""Tuple-generating dependencies (TGDs) and guarded TGDs.

A TGD is a first-order formula ``∀x [β → ∃y η]`` where ``β`` (the *body*) and
``η`` (the *head*) are conjunctions of atoms, the free variables of ``β`` are
``x`` and those of ``η`` are contained in ``x ∪ y`` (Section 3).

A TGD is *full* if it has no existentially quantified head variables, and
*guarded* if its body contains an atom (a *guard*) mentioning every
universally quantified variable.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

from .atoms import Atom, atom_constants, atom_variables
from .interning import Interned
from .substitution import Substitution
from .terms import Constant, Variable


class TGD(Interned, kind="tgd", tag="tgd"):
    """A tuple-generating dependency ``∀x [body → ∃y head]``.

    The universally quantified variables are exactly the variables of the
    body; the existentially quantified variables are the head variables that
    do not occur in the body.  Both conventions follow the paper, so the
    quantifier prefix never needs to be stored explicitly.

    TGDs are interned like atoms and terms: a derivation that reconstructs an
    already-seen TGD gets the identical object back, so the per-clause caches
    (guards, premise renamings, canonical-form flag) are shared and the
    variable-structure analysis below runs once per distinct clause.
    """

    __slots__ = (
        "body",
        "head",
        "_frontier",
        "_existential",
        "_universal",
        "_guards",
        "_renamed",
        "is_canonical",
        "_body_set",
        "_head_set",
        "_head_normal",
        "_hnf",
        "_canonical_form",
    )

    def __new__(cls, body: Sequence[Atom], head: Sequence[Atom]) -> "TGD":
        key = (tuple(body), tuple(head))
        interned = cls._interned.get(key)
        if interned is None:
            return cls._intern(key)
        cls._counter.hits += 1
        return interned

    def _setup(self, body: Tuple[Atom, ...], head: Tuple[Atom, ...]) -> None:
        if not head:
            raise ValueError("a TGD must have a nonempty head")
        self.body = body
        self.head = head
        universal = frozenset(atom_variables(body))
        head_vars = frozenset(atom_variables(head))
        self._universal = universal
        self._existential = head_vars - universal
        self._frontier = head_vars & universal
        self._guards: Optional[Tuple[Atom, ...]] = None
        self._renamed: Optional[dict] = None
        #: set by :func:`repro.logic.normal_form.normalize_tgd` on its output,
        #: so renormalizing an already-canonical TGD is a no-op
        self.is_canonical = False
        self._body_set: Optional[FrozenSet[Atom]] = None
        self._head_set: Optional[FrozenSet[Atom]] = None
        self._head_normal: Optional[bool] = None
        self._hnf: Optional[Tuple["TGD", ...]] = None
        #: set by normalize_tgd: this clause's canonical-variable form,
        #: cached on the interned clause so rederivations normalize in O(1)
        self._canonical_form: Optional["TGD"] = None

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    # variable structure
    # ------------------------------------------------------------------
    @property
    def universal_variables(self) -> FrozenSet[Variable]:
        """Variables quantified universally (the body variables)."""
        return self._universal

    @property
    def existential_variables(self) -> FrozenSet[Variable]:
        """Head variables that do not occur in the body."""
        return self._existential

    @property
    def frontier(self) -> FrozenSet[Variable]:
        """Body variables that also occur in the head."""
        return self._frontier

    def variables(self) -> FrozenSet[Variable]:
        """All variables of the TGD."""
        return self._universal | self._existential

    def constants(self) -> Tuple[Constant, ...]:
        """All constants of the TGD in order of first occurrence."""
        return atom_constants(self.body + self.head)

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    @property
    def is_full(self) -> bool:
        """``True`` if the TGD has no existentially quantified variables."""
        return not self._existential

    @property
    def is_non_full(self) -> bool:
        return bool(self._existential)

    @property
    def is_datalog_rule(self) -> bool:
        """``True`` if the TGD is full and has a single head atom."""
        return self.is_full and len(self.head) == 1

    @property
    def is_head_normal(self) -> bool:
        """Head-normal form check (Section 3), cached on the interned TGD.

        A TGD is in head-normal form if it is full with a single head atom, or
        it is non-full and every head atom contains at least one existentially
        quantified variable.
        """
        cached = self._head_normal
        if cached is None:
            if self.is_full:
                cached = len(self.head) == 1
            else:
                existential = self._existential
                cached = all(
                    not existential.isdisjoint(atom.variable_set())
                    for atom in self.head
                )
            self._head_normal = cached
        return cached

    @property
    def is_syntactic_tautology(self) -> bool:
        """Definition 5.1: head-normal form and ``body ∩ head ≠ ∅``."""
        if not self.is_head_normal:
            return False
        return not self.body_atom_set.isdisjoint(self.head)

    @property
    def body_atom_set(self) -> FrozenSet[Atom]:
        """The body atoms as a (cached) frozenset."""
        cached = self._body_set
        if cached is None:
            cached = self._body_set = frozenset(self.body)
        return cached

    @property
    def head_atom_set(self) -> FrozenSet[Atom]:
        """The head atoms as a (cached) frozenset."""
        cached = self._head_set
        if cached is None:
            cached = self._head_set = frozenset(self.head)
        return cached

    # ------------------------------------------------------------------
    # guardedness
    # ------------------------------------------------------------------
    def guards(self) -> Tuple[Atom, ...]:
        """Body atoms containing every universally quantified variable."""
        cached = self._guards
        if cached is None:
            universal = self._universal
            cached = self._guards = tuple(
                atom for atom in self.body if universal <= atom.variable_set()
            )
        return cached

    @property
    def is_guarded(self) -> bool:
        """``True`` if some body atom is a guard."""
        if not self._universal:
            return bool(self.body) or True
        return bool(self.guards())

    # ------------------------------------------------------------------
    # widths (Section 3)
    # ------------------------------------------------------------------
    @property
    def body_width(self) -> int:
        """Number of distinct variables in the body."""
        return len(self._universal)

    @property
    def head_width(self) -> int:
        """Number of distinct variables in the head."""
        return len(self._frontier) + len(self._existential)

    @property
    def width(self) -> int:
        """Number of distinct variables in the whole TGD."""
        return len(self.variables())

    @property
    def size(self) -> int:
        """Total number of atoms (used to prioritise small TGDs in saturation)."""
        return len(self.body) + len(self.head)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def apply(self, substitution: Substitution) -> "TGD":
        """Apply a substitution to body and head."""
        if not substitution:
            return self
        return TGD(
            substitution.apply_atoms(self.body),
            substitution.apply_atoms(self.head),
        )

    def rename_apart(self, suffix: str) -> "TGD":
        """Rename all variables by appending ``@suffix`` (for premise renaming).

        The renaming is deterministic, so the result is cached per suffix;
        saturation renames every retained partner apart once instead of once
        per premise pair.
        """
        cache = self._renamed
        if cache is None:
            cache = self._renamed = {}
        renamed = cache.get(suffix)
        if renamed is None:
            mapping = {
                var: Variable(f"{var.name}@{suffix}") for var in self.variables()
            }
            renamed = cache[suffix] = self.apply(Substitution(mapping))
        return renamed

    def head_normal_form(self) -> Tuple["TGD", ...]:
        """Split this TGD into an equivalent set of TGDs in head-normal form.

        Full head atoms (atoms without existentially quantified variables) of a
        non-full TGD are emitted as separate full single-atom TGDs; the
        remaining head atoms stay together in one non-full TGD.  A full TGD is
        split into one Datalog rule per head atom.  Results are cached on the
        interned TGD — every re-derivation of a clause shares the split.
        """
        cached = self._hnf
        if cached is not None:
            return cached
        cached = self._head_normal_form()
        self._hnf = cached
        return cached

    def _head_normal_form(self) -> Tuple["TGD", ...]:
        if self.is_head_normal:
            return (self,)
        if self.is_full:
            return tuple(TGD(self.body, (atom,)) for atom in self.head)
        existential = self._existential
        existential_atoms = []
        full_atoms = []
        for atom in self.head:
            if any(var in existential for var in atom.variables()):
                existential_atoms.append(atom)
            else:
                full_atoms.append(atom)
        result = [TGD(self.body, (atom,)) for atom in full_atoms]
        if existential_atoms:
            result.append(TGD(self.body, tuple(existential_atoms)))
        return tuple(result)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"TGD({self.body!r}, {self.head!r})"

    def __str__(self) -> str:
        body = " & ".join(str(atom) for atom in self.body) if self.body else "true"
        head = " & ".join(str(atom) for atom in self.head)
        if self._existential:
            exist = ", ".join(sorted(f"?{v.name}" for v in self._existential))
            return f"{body} -> exists {exist}. {head}"
        return f"{body} -> {head}"


def head_normalize(tgds: Iterable[TGD]) -> Tuple[TGD, ...]:
    """Transform a collection of TGDs into head-normal form, removing duplicates."""
    seen = {}
    for tgd in tgds:
        for normalized in tgd.head_normal_form():
            if normalized not in seen:
                seen[normalized] = None
    return tuple(seen)


def bwidth(tgds: Iterable[TGD]) -> int:
    """Maximum body width over a collection of TGDs (0 if empty)."""
    return max((tgd.body_width for tgd in tgds), default=0)


def hwidth(tgds: Iterable[TGD]) -> int:
    """Maximum head width over a collection of TGDs (0 if empty)."""
    return max((tgd.head_width for tgd in tgds), default=0)


def all_guarded(tgds: Iterable[TGD]) -> bool:
    """``True`` if every TGD in the collection is guarded."""
    return all(tgd.is_guarded for tgd in tgds)


def split_full_non_full(
    tgds: Iterable[TGD],
) -> Tuple[Tuple[TGD, ...], Tuple[TGD, ...]]:
    """Partition TGDs into (full, non-full)."""
    full = []
    non_full = []
    for tgd in tgds:
        if tgd.is_full:
            full.append(tgd)
        else:
            non_full.append(tgd)
    return tuple(full), tuple(non_full)


def program_constants(tgds: Iterable[TGD]) -> FrozenSet[Constant]:
    """All constants occurring in a set of TGDs (``consts(Σ)`` in the paper)."""
    result = set()
    for tgd in tgds:
        result.update(tgd.constants())
    return frozenset(result)


def find_guard(tgd: TGD) -> Optional[Atom]:
    """Return some guard of the TGD, or ``None`` if the TGD is not guarded."""
    guards = tgd.guards()
    return guards[0] if guards else None
