"""Terms of the logic substrate.

The paper uses three pairwise disjoint, infinite sets of *constants*,
*variables*, and *labeled nulls* (Section 3).  When existential quantifiers
are encoded with Skolem symbols (Section 3, "Encoding Existentials by
Function Symbols"), terms may additionally be *functional terms* built from
Skolem function symbols.

All term classes and :class:`FunctionSymbol` are immutable and *interned*
through :class:`~repro.logic.interning.Interned`: constructing a term that
was constructed before returns the identical object, so structural equality
coincides with identity and hashes are computed once per distinct term.
:class:`Term` gives the symbol collectors their empty defaults, so each
atomic term overrides only the collector that yields itself.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from .interning import Interned


class Term:
    """Base class of all terms.

    The defaults describe a ground term that contains no symbols; each
    subclass overrides what it contains.
    """

    __slots__ = ()

    @property
    def is_ground(self) -> bool:
        """Return ``True`` if the term contains no variables."""
        return True

    def variables(self) -> Iterator["Variable"]:
        """Yield the variables occurring in this term."""
        return iter(())

    def constants(self) -> Iterator["Constant"]:
        """Yield the constants occurring in this term."""
        return iter(())

    def nulls(self) -> Iterator["Null"]:
        """Yield the labeled nulls occurring in this term."""
        return iter(())

    def function_symbols(self) -> Iterator["FunctionSymbol"]:
        """Yield the function symbols occurring in this term."""
        return iter(())

    @property
    def depth(self) -> int:
        """Nesting depth: 0 for atomic terms, 1 + max child depth otherwise."""
        return 0


class Constant(Term, Interned, kind="constant", tag="const"):
    """A constant symbol, e.g. ``a`` or ``sw1``."""

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Constant":
        key = (name,)
        interned = cls._interned.get(key)
        if interned is None:
            return cls._intern(key)
        cls._counter.hits += 1
        return interned

    def _setup(self, name: str) -> None:
        self.name = name

    def __hash__(self) -> int:
        return self._hash

    def constants(self) -> Iterator["Constant"]:
        yield self

    def __repr__(self) -> str:
        return f"Constant({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Variable(Term, Interned, kind="variable", tag="var"):
    """A first-order variable, e.g. ``x1`` or ``y``."""

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Variable":
        key = (name,)
        interned = cls._interned.get(key)
        if interned is None:
            return cls._intern(key)
        cls._counter.hits += 1
        return interned

    def _setup(self, name: str) -> None:
        self.name = name

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_ground(self) -> bool:
        return False

    def variables(self) -> Iterator["Variable"]:
        yield self

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return f"?{self.name}"


class Null(Term, Interned, kind="null", tag="null"):
    """A labeled null introduced by a chase step with a non-full GTGD."""

    __slots__ = ("label",)

    def __new__(cls, label: int) -> "Null":
        key = (label,)
        interned = cls._interned.get(key)
        if interned is None:
            return cls._intern(key)
        cls._counter.hits += 1
        return interned

    def _setup(self, label: int) -> None:
        self.label = label

    def __hash__(self) -> int:
        return self._hash

    def nulls(self) -> Iterator["Null"]:
        yield self

    def __repr__(self) -> str:
        return f"Null({self.label})"

    def __str__(self) -> str:
        return f"_:n{self.label}"


class FunctionSymbol(Interned, kind="function_symbol", tag="fsym"):
    """A function symbol; Skolem symbols are a flagged subset of these."""

    __slots__ = ("name", "arity", "is_skolem")

    def __new__(cls, name: str, arity: int, is_skolem: bool = True) -> "FunctionSymbol":
        key = (name, arity, is_skolem)
        interned = cls._interned.get(key)
        if interned is None:
            return cls._intern(key)
        cls._counter.hits += 1
        return interned

    def _setup(self, name: str, arity: int, is_skolem: bool) -> None:
        self.name = name
        self.arity = arity
        self.is_skolem = is_skolem

    def __hash__(self) -> int:
        return self._hash

    def __call__(self, *args: Term) -> "FunctionTerm":
        return FunctionTerm(self, args)

    def __repr__(self) -> str:
        return f"FunctionSymbol({self.name!r}, {self.arity})"

    def __str__(self) -> str:
        return self.name


class FunctionTerm(Term, Interned, kind="function_term", tag="fterm"):
    """A functional term ``f(t1, ..., tn)`` (used to encode existentials)."""

    __slots__ = ("symbol", "args", "_ground", "_variables")

    def __new__(cls, symbol: FunctionSymbol, args: Sequence[Term]) -> "FunctionTerm":
        key = (symbol, tuple(args))
        interned = cls._interned.get(key)
        if interned is None:
            return cls._intern(key)
        cls._counter.hits += 1
        return interned

    def _setup(self, symbol: FunctionSymbol, args: Tuple[Term, ...]) -> None:
        if len(args) != symbol.arity:
            raise ValueError(
                f"function symbol {symbol.name} has arity {symbol.arity}, "
                f"got {len(args)} arguments"
            )
        self.symbol = symbol
        self.args = args
        self._ground = all(arg.is_ground for arg in args)
        self._variables = tuple(
            var for arg in args for var in arg.variables()
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_ground(self) -> bool:
        return self._ground

    def variables(self) -> Iterator[Variable]:
        return iter(self._variables)

    def constants(self) -> Iterator[Constant]:
        for arg in self.args:
            yield from arg.constants()

    def nulls(self) -> Iterator[Null]:
        for arg in self.args:
            yield from arg.nulls()

    def function_symbols(self) -> Iterator[FunctionSymbol]:
        yield self.symbol
        for arg in self.args:
            yield from arg.function_symbols()

    @property
    def depth(self) -> int:
        if not self.args:
            return 1
        return 1 + max(arg.depth for arg in self.args)

    def __repr__(self) -> str:
        return f"FunctionTerm({self.symbol!r}, {self.args!r})"

    def __str__(self) -> str:
        inner = ", ".join(str(arg) for arg in self.args)
        return f"{self.symbol.name}({inner})"

