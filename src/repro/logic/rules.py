"""Rules in the Skolemized setting (Section 3 and Definition 5.9).

A *rule* is an implication ``∀x [β → H]`` where ``β`` is a conjunction of
atoms with free variables ``x`` and ``H`` is a single atom whose free
variables are contained in ``x``.  Rules contain no existential quantifiers,
but atoms may contain Skolem functional terms.

A rule is *guarded* (Definition 5.9) if every function symbol in the rule is a
Skolem symbol, the body contains a Skolem-free atom mentioning all variables
of the rule, and each Skolem term has the form ``f(t)`` where ``t`` is
function-free and mentions all variables of the rule.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

from .atoms import Atom, atom_constants, atom_variables
from .interning import Interned
from .substitution import Substitution
from .terms import Constant, FunctionTerm, Variable


class Rule(Interned, kind="rule", tag="rule"):
    """A rule ``body → head`` with a single head atom and no existentials.

    Rules are interned like TGDs: re-deriving an already-seen rule returns
    the identical object, sharing the per-clause caches (guards, premise
    renamings, canonical-form flag).
    """

    __slots__ = (
        "body",
        "head",
        "_variables",
        "_guards",
        "_renamed",
        "is_canonical",
        "_body_set",
        "_skolem_free",
        "_body_skolem_free",
        "_canonical_form",
    )

    def __new__(cls, body: Sequence[Atom], head: Atom) -> "Rule":
        key = (tuple(body), head)
        interned = cls._interned.get(key)
        if interned is None:
            return cls._intern(key)
        cls._counter.hits += 1
        return interned

    def _setup(self, body: Tuple[Atom, ...], head: Atom) -> None:
        self.body = body
        self.head = head
        variables = set(atom_variables(body))
        head_vars = head.variable_set()
        if not head_vars <= variables:
            raise ValueError(
                "rule head variables must be contained in the body variables: "
                f"{head} has free variables not in {body}"
            )
        self._variables = frozenset(variables)
        self._guards: Optional[Tuple[Atom, ...]] = None
        self._renamed: Optional[dict] = None
        #: set by :func:`repro.logic.normal_form.normalize_rule` on its output
        self.is_canonical = False
        self._body_set: Optional[FrozenSet[Atom]] = None
        self._body_skolem_free = all(atom.is_function_free for atom in body)
        self._skolem_free = self._body_skolem_free and head.is_function_free
        #: set by normalize_rule: this rule's canonical-variable form
        self._canonical_form: "Optional[Rule]" = None

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def variables(self) -> FrozenSet[Variable]:
        return self._variables

    def constants(self) -> Tuple[Constant, ...]:
        return atom_constants(self.body + (self.head,))

    @property
    def is_skolem_free(self) -> bool:
        """``True`` if no atom of the rule contains a function symbol."""
        return self._skolem_free

    @property
    def body_is_skolem_free(self) -> bool:
        return self._body_skolem_free

    @property
    def is_datalog_rule(self) -> bool:
        """Datalog rule = function-free rule = full TGD in head-normal form."""
        return self.is_skolem_free

    @property
    def is_syntactic_tautology(self) -> bool:
        """Definition 5.1 for rules: the head occurs in the body."""
        return self.head in self.body_atom_set

    @property
    def body_atom_set(self) -> FrozenSet[Atom]:
        """The body atoms as a (cached) frozenset."""
        cached = self._body_set
        if cached is None:
            cached = self._body_set = frozenset(self.body)
        return cached

    @property
    def size(self) -> int:
        """Number of atoms, used for prioritisation in saturation."""
        return len(self.body) + 1

    @property
    def width(self) -> int:
        return len(self._variables)

    # ------------------------------------------------------------------
    # guardedness (Definition 5.9)
    # ------------------------------------------------------------------
    def guards(self) -> Tuple[Atom, ...]:
        """Skolem-free body atoms mentioning every variable of the rule."""
        cached = self._guards
        if cached is None:
            variables = self._variables
            cached = self._guards = tuple(
                atom
                for atom in self.body
                if atom.is_function_free and atom.variable_set() >= variables
            )
        return cached

    @property
    def is_guarded(self) -> bool:
        """Check Definition 5.9.

        All function symbols must be Skolem symbols, the body must contain a
        Skolem-free guard, and every Skolem term must be ``f(t)`` with ``t``
        function-free and mentioning all variables of the rule.
        """
        variables = self._variables
        if variables and not self.guards():
            return False
        for atom in self.body + (self.head,):
            for arg in atom.args:
                if isinstance(arg, FunctionTerm):
                    if not arg.symbol.is_skolem:
                        return False
                    if any(isinstance(sub, FunctionTerm) for sub in arg.args):
                        return False
                    if frozenset(arg.variables()) != variables:
                        return False
        return True

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def apply(self, substitution: Substitution) -> "Rule":
        if not substitution:
            return self
        return Rule(
            substitution.apply_atoms(self.body),
            substitution.apply_atom(self.head),
        )

    def rename_apart(self, suffix: str) -> "Rule":
        """Deterministic premise renaming, cached per suffix (see TGD)."""
        cache = self._renamed
        if cache is None:
            cache = self._renamed = {}
        renamed = cache.get(suffix)
        if renamed is None:
            mapping = {
                var: Variable(f"{var.name}@{suffix}") for var in self._variables
            }
            renamed = cache[suffix] = self.apply(Substitution(mapping))
        return renamed

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"Rule({self.body!r}, {self.head!r})"

    def __str__(self) -> str:
        body = " & ".join(str(atom) for atom in self.body) if self.body else "true"
        return f"{body} -> {self.head}"


def datalog_rules(rules: Iterable[Rule]) -> Tuple[Rule, ...]:
    """Return the Skolem-free (Datalog) rules of a collection."""
    return tuple(rule for rule in rules if rule.is_datalog_rule)


def find_guard(rule: Rule) -> Optional[Atom]:
    """Return some guard of the rule, or ``None``."""
    guards = rule.guards()
    return guards[0] if guards else None


def rule_to_datalog_tgd(rule: Rule):
    """Convert a function-free rule into the equivalent full TGD."""
    from .tgd import TGD

    if not rule.is_skolem_free:
        raise ValueError("only function-free rules correspond to Datalog TGDs")
    return TGD(rule.body, (rule.head,))


def datalog_tgd_to_rule(tgd) -> Rule:
    """Convert a full single-head-atom TGD into a rule."""
    if not tgd.is_datalog_rule:
        raise ValueError("only full TGDs with a single head atom are Datalog rules")
    return Rule(tgd.body, tgd.head[0])
