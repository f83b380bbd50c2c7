"""Skolemization of TGDs (Section 3, "Encoding Existentials by Function Symbols").

For a TGD ``τ = ∀x [β → ∃y η]`` and each existentially quantified variable
``y ∈ y``, Skolemization introduces a fresh ``|x|``-ary Skolem symbol
``f_{τ,y}`` and replaces ``y`` by the term ``f_{τ,y}(x)``.  The Skolemization
of ``τ`` is the set of rules ``∀x [β → σ(H)]`` for each head atom ``H``.

Skolem symbols are uniquely associated with the pair ``(τ, y)``: skolemizing
the same TGD twice yields identical symbols, while distinct TGDs always get
distinct symbols.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .rules import Rule
from .substitution import Substitution
from .terms import FunctionSymbol, FunctionTerm, Variable
from .tgd import TGD


class SkolemFactory:
    """Produces Skolem symbols uniquely associated with ``(TGD, variable)`` pairs."""

    def __init__(self, prefix: str = "sk") -> None:
        self._prefix = prefix
        self._symbols: Dict[Tuple[TGD, Variable], FunctionSymbol] = {}
        self._counter = 0

    def symbol_for(self, tgd: TGD, variable: Variable, arity: int) -> FunctionSymbol:
        """Return the Skolem symbol for the given TGD and existential variable."""
        key = (tgd, variable)
        symbol = self._symbols.get(key)
        if symbol is None:
            symbol = FunctionSymbol(
                f"{self._prefix}{self._counter}_{variable.name}", arity, is_skolem=True
            )
            self._symbols[key] = symbol
            self._counter += 1
        return symbol

    @property
    def count(self) -> int:
        """Number of distinct Skolem symbols produced so far."""
        return self._counter


def skolemize_tgd(tgd: TGD, factory: SkolemFactory) -> Tuple[Rule, ...]:
    """Skolemize a single TGD into a set of rules (one per head atom)."""
    universal = sorted(tgd.universal_variables, key=lambda v: v.name)
    frontier_args: Tuple[Variable, ...] = tuple(universal)
    mapping: Dict[Variable, FunctionTerm] = {}
    for var in sorted(tgd.existential_variables, key=lambda v: v.name):
        symbol = factory.symbol_for(tgd, var, len(frontier_args))
        mapping[var] = FunctionTerm(symbol, frontier_args)
    substitution = Substitution(mapping)
    rules: List[Rule] = []
    for head_atom in tgd.head:
        rules.append(Rule(tgd.body, substitution.apply_atom(head_atom)))
    return tuple(rules)


def skolemize(
    tgds: Iterable[TGD], factory: SkolemFactory | None = None
) -> Tuple[Rule, ...]:
    """Skolemize a collection of TGDs, deduplicating the resulting rules."""
    factory = factory or SkolemFactory()
    seen: Dict[Rule, None] = {}
    for tgd in tgds:
        for rule in skolemize_tgd(tgd, factory):
            if rule not in seen:
                seen[rule] = None
    return tuple(seen)


def count_existentials(tgds: Iterable[TGD]) -> int:
    """Total number of existential quantifiers across the TGDs (``e`` in Thms 5.13/5.19)."""
    return sum(len(tgd.existential_variables) for tgd in tgds)
