"""Predicates, atoms, and facts.

Following Section 3 of the paper:

* a *fact* is ``R(t)`` where ``t`` is a vector of ground terms;
* a *base fact* additionally contains only constants;
* an *atom* is ``R(t)`` where ``t`` contains no labeled nulls (it may contain
  variables, constants, and — in the Skolemized setting — functional terms).

A single :class:`Atom` class covers both notions; helper predicates classify
an atom as a fact or a base fact.

Predicates and atoms are interned (hash-consed) like terms: equal values are
identical objects, and per-atom derived data (variable tuple/set, groundness,
function-freeness) is computed once per distinct atom and shared by every
occurrence.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Sequence, Tuple

from .interning import Interned
from .terms import (
    Constant,
    FunctionSymbol,
    FunctionTerm,
    Null,
    Term,
    Variable,
)


class Predicate(Interned, kind="predicate", tag="pred"):
    """A relation symbol with a fixed arity."""

    __slots__ = ("name", "arity")

    def __new__(cls, name: str, arity: int) -> "Predicate":
        key = (name, arity)
        interned = cls._interned.get(key)
        if interned is None:
            return cls._intern(key)
        cls._counter.hits += 1
        return interned

    def _setup(self, name: str, arity: int) -> None:
        if arity < 0:
            raise ValueError("predicate arity must be nonnegative")
        self.name = name
        self.arity = arity

    def __hash__(self) -> int:
        return self._hash

    def __call__(self, *args: Term) -> "Atom":
        return Atom(self, args)

    def __repr__(self) -> str:
        return f"Predicate({self.name!r}, {self.arity})"

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


class Atom(Interned, kind="atom", tag="atom"):
    """An atom ``R(t1, ..., tn)``.

    Atoms are immutable, hashable, and interned.  The same class represents
    facts (all-ground argument vectors) and base facts (all-constant vectors).
    """

    __slots__ = (
        "predicate",
        "args",
        "_variables",
        "_varset",
        "_ground",
        "_function_free",
        "_sort_key",
        "_term_set",
        "_null_set",
        "_depth",
        "_str",
    )

    def __new__(cls, predicate: Predicate, args: Sequence[Term]) -> "Atom":
        key = (predicate, tuple(args))
        interned = cls._interned.get(key)
        if interned is None:
            return cls._intern(key)
        cls._counter.hits += 1
        return interned

    def _setup(self, predicate: Predicate, args: Tuple[Term, ...]) -> None:
        if len(args) != predicate.arity:
            raise ValueError(
                f"predicate {predicate.name} has arity {predicate.arity}, "
                f"got {len(args)} arguments"
            )
        self.predicate = predicate
        self.args = args
        variables = tuple(var for arg in args for var in arg.variables())
        self._variables = variables
        self._varset = frozenset(variables)
        self._ground = not variables
        self._function_free = not any(
            isinstance(arg, FunctionTerm) for arg in args
        )
        #: lazily computed by repro.logic.normal_form._atom_sort_key; interning
        #: makes the cache global across every occurrence of the atom
        self._sort_key = None
        # lazily computed per interned atom (see term_set/null_set/depth):
        # the chase engines test Σ-guardedness and null-freshness in tight
        # loops, so these sets must not be rebuilt per check
        self._term_set = None
        self._null_set = None
        self._depth = None
        # cached __str__: the guarded chase canonicalizes types by sorting
        # their facts on the rendered string, so each distinct fact must be
        # rendered at most once per process, not once per visit
        self._str = None

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    @property
    def is_ground(self) -> bool:
        """``True`` if no argument contains a variable (i.e. the atom is a fact)."""
        return self._ground

    @property
    def is_fact(self) -> bool:
        """Alias of :attr:`is_ground`."""
        return self._ground

    @property
    def is_base_fact(self) -> bool:
        """``True`` if every argument is a constant."""
        return all(isinstance(arg, Constant) for arg in self.args)

    @property
    def is_function_free(self) -> bool:
        """``True`` if no argument is (or contains) a functional term."""
        return self._function_free

    @property
    def has_skolem(self) -> bool:
        """``True`` if some argument contains a Skolem function symbol."""
        return any(sym.is_skolem for sym in self.function_symbols())

    @property
    def depth(self) -> int:
        """Maximum nesting depth over the arguments (0 for function-free atoms).

        Cached on the interned atom: the depth-bounded Skolem chase checks it
        for every derived fact.
        """
        cached = self._depth
        if cached is None:
            cached = self._depth = (
                max(arg.depth for arg in self.args) if self.args else 0
            )
        return cached

    # ------------------------------------------------------------------
    # symbol access
    # ------------------------------------------------------------------
    def variables(self) -> Iterator[Variable]:
        return iter(self._variables)

    def constants(self) -> Iterator[Constant]:
        for arg in self.args:
            yield from arg.constants()

    def nulls(self) -> Iterator[Null]:
        for arg in self.args:
            yield from arg.nulls()

    def function_symbols(self) -> Iterator[FunctionSymbol]:
        for arg in self.args:
            yield from arg.function_symbols()

    def variable_set(self) -> FrozenSet[Variable]:
        return self._varset

    def term_set(self) -> FrozenSet[Term]:
        """The top-level argument terms as a (cached) frozenset.

        This is the ``t`` of Σ-guardedness checks (``G ⊆ t ∪ consts(Σ)``);
        interning makes the set shared by every occurrence of the atom, so
        the chase engines' per-loop guardedness tests stop rebuilding it.
        """
        cached = self._term_set
        if cached is None:
            cached = self._term_set = frozenset(self.args)
        return cached

    def null_set(self) -> FrozenSet[Null]:
        """The labeled nulls of the atom as a (cached) frozenset."""
        cached = self._null_set
        if cached is None:
            cached = self._null_set = frozenset(self.nulls())
        return cached

    def terms(self) -> Iterator[Term]:
        """Yield the top-level argument terms."""
        return iter(self.args)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"Atom({self.predicate.name!r}, {self.args!r})"

    def __str__(self) -> str:
        cached = self._str
        if cached is None:
            if not self.args:
                cached = self.predicate.name
            else:
                inner = ", ".join(str(arg) for arg in self.args)
                cached = f"{self.predicate.name}({inner})"
            self._str = cached
        return cached


def atom_variables(atoms: Iterable[Atom]) -> Tuple[Variable, ...]:
    """Distinct variables of a collection of atoms, in order of first occurrence."""
    seen = {}
    for atom in atoms:
        for var in atom._variables:
            if var not in seen:
                seen[var] = None
    return tuple(seen)


def atom_constants(atoms: Iterable[Atom]) -> Tuple[Constant, ...]:
    """Distinct constants of a collection of atoms, in order of first occurrence."""
    seen = {}
    for atom in atoms:
        for const in atom.constants():
            if const not in seen:
                seen[const] = None
    return tuple(seen)


def predicates_of(atoms: Iterable[Atom]) -> Tuple[Predicate, ...]:
    """Distinct predicates of a collection of atoms, in order of first occurrence."""
    seen = {}
    for atom in atoms:
        if atom.predicate not in seen:
            seen[atom.predicate] = None
    return tuple(seen)
