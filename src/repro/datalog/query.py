"""Existential-free conjunctive queries.

The rewriting approach preserves exactly the *base facts* entailed on each
base instance, so it supports conjunctive queries where every variable is an
answer variable (Section 1).  A query is evaluated by matching its atoms into
a materialized fact store and projecting onto the answer variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Sequence, Tuple

from ..logic.atoms import Atom
from ..logic.terms import Term, Variable
from .engine import MaterializationResult
from .store import FactStore
from .plan import JoinPlanStats, body_supports_plan, compiled_body_plan


class QueryValidationError(ValueError):
    """Raised when a query is not existential-free or otherwise malformed."""


#: the evaluation strategies a query can request; see :class:`QueryOptions`
QUERY_STRATEGIES = ("auto", "materialized", "demand")


@dataclass(frozen=True)
class QueryOptions:
    """Per-call evaluation options for ``answer``/``answer_many``.

    ``strategy`` selects how answers are computed (they are identical under
    every strategy — only the work done differs):

    * ``"materialized"`` — evaluate over the session's full materialization,
      computing it first if the session is cold.  The right choice for warm
      sessions and for batches that touch most of the KB.
    * ``"demand"`` — goal-directed evaluation via the magic-sets
      transformation (:mod:`repro.datalog.magic`): only derive facts the
      query's bound arguments demand, however much work that takes, and
      never warm a cold session.  A query with no bound arguments
      degenerates to (reachability-restricted) full materialization in a
      scratch store.
    * ``"auto"`` (default) — ``demand`` when the session is cold *and* the
      query has at least one bound argument, else ``materialized``.  Its
      demand evaluation may spend at most one unit of work (a rule
      application or a join step) per base fact; past that, it stops,
      warms the session and answers from the materialization, so ``auto``
      never pays much more than materializing.  It can pay far more than
      ``demand``: a demand evaluation that needs a few units per base fact
      cuts over even where the materialization is much dearer (see
      :mod:`repro.datalog.session`).
    """

    strategy: str = "auto"

    def __post_init__(self) -> None:
        if self.strategy not in QUERY_STRATEGIES:
            raise ValueError(
                f"unknown query strategy {self.strategy!r}; "
                f"expected one of {QUERY_STRATEGIES}"
            )


#: the default options: automatic strategy selection
DEFAULT_QUERY_OPTIONS = QueryOptions()


@dataclass(frozen=True)
class ConjunctiveQuery:
    """An existential-free conjunctive query ``ans(x) <- body``."""

    answer_variables: Tuple[Variable, ...]
    body: Tuple[Atom, ...]

    def __post_init__(self) -> None:
        body_variables = {var for atom in self.body for var in atom.variables()}
        answer_set = set(self.answer_variables)
        if len(answer_set) != len(self.answer_variables):
            raise QueryValidationError("duplicate answer variables")
        missing = answer_set - body_variables
        if missing:
            raise QueryValidationError(
                f"answer variables {sorted(v.name for v in missing)} "
                "do not occur in the query body"
            )
        existential = body_variables - answer_set
        if existential:
            raise QueryValidationError(
                "query is not existential-free; non-answer variables: "
                f"{sorted(v.name for v in existential)}"
            )

    @property
    def arity(self) -> int:
        return len(self.answer_variables)

    def __str__(self) -> str:
        head = ", ".join(f"?{var.name}" for var in self.answer_variables)
        body = ", ".join(str(atom) for atom in self.body)
        return f"ans({head}) <- {body}"


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse an existential-free conjunctive query from the textual format.

    The text is a conjunction of atoms in the parser syntax, e.g.
    ``"Equipment(?x), hasTerminal(?x, ?y)"`` (a trailing ``.`` is accepted).
    Every variable is an answer variable — the class of queries the rewriting
    approach supports — in order of first occurrence.
    """
    from ..logic.parser import parse_conjunction

    body = parse_conjunction(text)
    seen: Dict[Variable, None] = {}
    for atom in body:
        for variable in atom.variables():
            seen.setdefault(variable, None)
    return ConjunctiveQuery(tuple(seen), body)


def evaluate_query(
    query: ConjunctiveQuery,
    facts: FactStore | MaterializationResult | Iterable[Atom],
) -> FrozenSet[Tuple[Term, ...]]:
    """Evaluate the query over a set of facts; return the set of answer tuples.

    The body runs through the same compiled hash-join pipeline the engine
    uses for rule bodies (:func:`repro.datalog.plan.compiled_body_plan`);
    answers are projected straight out of the columnar match batch.  Bodies
    containing non-ground function terms (which need unification, not
    key-equality probing) fall back to tuple-at-a-time matching.
    """
    store = _as_store(facts)
    if not body_supports_plan(query.body):
        answers = set()
        for match in _match_all_fallback(query.body, store):
            answers.add(tuple(match[var] for var in query.answer_variables))
        return frozenset(answers)
    batch = compiled_body_plan(query.body).execute(store, None, JoinPlanStats())
    if not batch.size:
        return frozenset()
    if not query.answer_variables:
        # every body atom is ground and present: one empty answer tuple
        return frozenset({()})
    # decode at the boundary: batch columns hold term IDs
    answer_columns = [
        store.terms.decode_column(batch.columns[var])
        for var in query.answer_variables
    ]
    return frozenset(zip(*answer_columns))


def boolean_query_holds(
    body: Sequence[Atom], facts: FactStore | MaterializationResult | Iterable[Atom]
) -> bool:
    """Evaluate a Boolean (variable-free) conjunctive query."""
    store = _as_store(facts)
    body = tuple(body)
    if not body_supports_plan(body):
        for _ in _match_all_fallback(body, store):
            return True
        return False
    batch = compiled_body_plan(body).execute(store, None, JoinPlanStats())
    return batch.size > 0


def _match_all_fallback(body: Tuple[Atom, ...], store: FactStore):
    """Tuple-at-a-time matching for bodies the plan compiler cannot express."""
    from ..unification.matching import match_conjunction_into_set

    return match_conjunction_into_set(body, tuple(store))


def _as_store(facts: FactStore | MaterializationResult | Iterable[Atom]) -> FactStore:
    if isinstance(facts, FactStore):
        return facts
    if isinstance(facts, MaterializationResult):
        return facts.store
    return FactStore(facts)
