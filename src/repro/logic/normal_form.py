"""Canonical variable normalization of TGDs and rules (Section 6).

Subsumption checking is NP-complete, so the paper's implementation uses an
approximate check based on a normalized representation: body and head atoms
are sorted by their relations using an arbitrary but fixed ordering (ties
broken arbitrarily but deterministically), and variables are renamed so that
the *i*-th distinct occurrence of a universally quantified variable from left
to right becomes ``x_i`` and the *i*-th distinct occurrence of an
existentially quantified variable becomes ``y_i``.

Normalization also guarantees termination of the saturation loop: the set of
normalized TGDs/rules over a fixed signature and bounded widths is finite.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .atoms import Atom
from .rules import Rule
from .terms import Constant, FunctionTerm, Term, Variable
from .tgd import TGD


def _term_shape(term: Term) -> Tuple:
    if isinstance(term, Constant):
        return (0, term.name)
    if isinstance(term, FunctionTerm):
        return (1, term.symbol.name, tuple(_term_shape(arg) for arg in term.args))
    return (2, "")


def _atom_sort_key(atom: Atom) -> Tuple:
    """Deterministic ordering on atoms: by predicate, then by argument shape.

    The argument shape distinguishes constants and functional terms but treats
    all variables alike, so the key is invariant under variable renaming; this
    keeps the normalization canonical.  Keys are cached on the (interned)
    atom, so each distinct atom computes its shape once per process.
    """
    key = atom._sort_key
    if key is None:
        key = atom._sort_key = (
            atom.predicate.name,
            atom.predicate.arity,
            tuple(_term_shape(arg) for arg in atom.args),
        )
    return key


def _rename_term(term: Term, mapping: Dict[Variable, Variable],
                 existential: frozenset, counts: List[int]) -> Term:
    """``counts`` holds the running [universal, existential] rename counters."""
    if isinstance(term, Variable):
        renamed = mapping.get(term)
        if renamed is None:
            if term in existential:
                counts[1] += 1
                renamed = Variable(f"y{counts[1]}")
            else:
                counts[0] += 1
                renamed = Variable(f"x{counts[0]}")
            mapping[term] = renamed
        return renamed
    if isinstance(term, FunctionTerm):
        return FunctionTerm(
            term.symbol,
            tuple(
                _rename_term(arg, mapping, existential, counts)
                for arg in term.args
            ),
        )
    return term


def _rename_atoms(
    atoms: Sequence[Atom],
    mapping: Dict[Variable, Variable],
    existential: frozenset,
    counts: List[int],
) -> Tuple[Atom, ...]:
    renamed: List[Atom] = []
    for atom in atoms:
        if atom.is_ground:
            renamed.append(atom)
            continue
        new_args = tuple(
            _rename_term(arg, mapping, existential, counts) for arg in atom.args
        )
        renamed.append(Atom(atom.predicate, new_args))
    return tuple(renamed)


def normalize_tgd(tgd: TGD) -> TGD:
    """Return the canonical-variable form of a TGD.

    Atoms are sorted deterministically and variables renamed to
    ``x1, x2, ...`` (universal) and ``y1, y2, ...`` (existential) in order of
    first occurrence.  Outputs carry the ``is_canonical`` flag, so
    renormalizing a clause that is already in canonical form is O(1); the
    subsumption hot path relies on this.
    """
    cached = tgd._canonical_form
    if cached is not None:
        return cached
    if tgd.is_canonical:
        tgd._canonical_form = tgd
        return tgd
    body = tuple(sorted(tgd.body, key=_atom_sort_key))
    head = tuple(sorted(tgd.head, key=_atom_sort_key))
    mapping: Dict[Variable, Variable] = {}
    counts = [0, 0]
    existential = tgd.existential_variables
    new_body = _rename_atoms(body, mapping, existential, counts)
    new_head = _rename_atoms(head, mapping, existential, counts)
    normalized = TGD(new_body, new_head)
    normalized.is_canonical = True
    normalized._canonical_form = normalized
    tgd._canonical_form = normalized
    return normalized


def normalize_rule(rule: Rule) -> Rule:
    """Return the canonical-variable form of a rule (head last, body sorted)."""
    cached = rule._canonical_form
    if cached is not None:
        return cached
    if rule.is_canonical:
        rule._canonical_form = rule
        return rule
    body = tuple(sorted(rule.body, key=_atom_sort_key))
    mapping: Dict[Variable, Variable] = {}
    counts = [0, 0]
    new_body = _rename_atoms(body, mapping, frozenset(), counts)
    new_head = _rename_atoms((rule.head,), mapping, frozenset(), counts)[0]
    normalized = Rule(new_body, new_head)
    normalized.is_canonical = True
    normalized._canonical_form = normalized
    rule._canonical_form = normalized
    return normalized


def normalize(obj):
    """Normalize either a TGD or a rule."""
    if isinstance(obj, TGD):
        return normalize_tgd(obj)
    if isinstance(obj, Rule):
        return normalize_rule(obj)
    raise TypeError(f"cannot normalize object of type {type(obj).__name__}")


def deduplicate_normalized(items: Iterable) -> Tuple:
    """Deduplicate TGDs/rules up to canonical variable renaming."""
    seen: Dict = {}
    result = []
    for item in items:
        key = normalize(item)
        if key not in seen:
            seen[key] = None
            result.append(item)
    return tuple(result)
