"""Magic-sets demand transformation for goal-directed query answering.

A materialized :class:`~repro.datalog.session.ReasoningSession` pays for the
full fixpoint of the rewriting even when a query only asks about one
constant.  This module implements the classic *magic sets* (demand)
transformation: given an existential-free conjunctive query, it rewrites the
program so that evaluation only derives facts *relevant to the query's bound
arguments*, then answers the query over that much smaller fixpoint.  The
rewritten program is ordinary Datalog, so it compiles through the existing
plan compiler and runs on the unmodified semi-naive engine.

Adornment notation
------------------

Queries supported by the rewriting approach are existential-free, so a
query atom's *bound* positions are exactly the positions holding a ground
term (in practice: a constant) and its *free* positions are the ones
holding answer variables.  An **adornment** is the string spelling this
pattern position by position — ``"bf"`` for a binary atom with a constant
in position 0, ``"ff"`` for a fully open scan, ``"b"`` for a unary point
lookup.  A *goal* is a pair ``(predicate, adornment)``; e.g. the query atom
``reach(a, ?x)`` raises the goal ``reach^bf``.

For every goal on an IDB predicate the transformation produces:

* an **adorned predicate** ``p__bf`` holding the tuples of ``p`` derivable
  under that demand pattern, defined by one *adorned rule* per original
  rule for ``p``;
* a **magic predicate** ``magic__p__bf`` over the bound positions only,
  holding the demanded bindings.  Every adorned rule is guarded by a magic
  atom over its head's bound arguments, and *magic rules* propagate demand
  through rule bodies in a bound-first order (sideways information
  passing, as chosen in Beeri and Ramakrishnan, "On the Power of Magic",
  1991): the next body atom is the one with the most bound arguments —
  ground, or a variable the head's bound positions or an earlier atom
  bind — with EDB atoms before IDB atoms on ties, then written order.  A
  body atom sees the head's bound variables plus everything bound by the
  atoms before it, so a body written as ``C(?x1) & r(?x2, ?x1)`` under a
  bound ``?x2`` demands ``r^bf`` and then ``C^b``, not an all-free ``C^f``;
* a **copy rule** ``p__bf(v...) <- magic__p__bf(v_bound...), p(v...)``
  importing base facts asserted directly on ``p`` (predicates can be both
  EDB and IDB here).

An all-free goal (``"ff..."``) gets no magic predicate — its guard would be
a 0-ary always-true atom — so its adorned rules are unguarded and the
evaluation degenerates to (reachability-restricted) full materialization,
which keeps zero-constant queries correct.  Evaluating a query then means:
seed ``magic__p^α`` with the query's constants, materialize the rewritten
program over those seeds plus the base facts of the predicates it or the
query reads, and evaluate the query with each IDB atom replaced by its
adorned predicate.

Reading the ``magic`` stats counters
------------------------------------

:class:`DemandReport` exposes:

* ``adorned_rules`` / ``magic_rules`` / ``copy_rules`` — size of the
  rewritten program by rule role (how much of the program the demand
  pattern specialized);
* ``magic_facts`` — demand facts derived during evaluation (how far demand
  propagated; small is good);
* ``work`` — rule applications plus join steps of the evaluation, the unit
  of :class:`~repro.datalog.engine.BudgetExceeded`'s budget;
* ``predicates_touched`` vs ``predicates_total`` — distinct *original*
  predicates the demand-restricted evaluation can reach, against the full
  program's predicate count.  A low ratio is the whole point: the query
  paid for a fraction of the KB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..logic.atoms import Atom, Predicate
from ..logic.rules import Rule
from ..logic.terms import Term, Variable
from .engine import compiled_engine
from .program import DatalogProgram
from .query import ConjunctiveQuery, evaluate_query

#: A demand goal: an (original predicate, adornment string) pair.
Goal = Tuple[Predicate, str]


def atom_adornment(atom: Atom) -> str:
    """The adornment of an atom: ``b`` at ground positions, ``f`` elsewhere."""
    return "".join("b" if arg.is_ground else "f" for arg in atom.args)


def query_goals(program: DatalogProgram, query: ConjunctiveQuery) -> Tuple[Goal, ...]:
    """The goals a query raises: one per body atom on an IDB predicate."""
    idb = program.idb_predicates()
    seen: Dict[Goal, None] = {}
    for atom in query.body:
        if atom.predicate in idb:
            seen.setdefault((atom.predicate, atom_adornment(atom)), None)
    return tuple(seen)


def query_has_bound_arguments(query: ConjunctiveQuery) -> bool:
    """``True`` if some body atom carries a ground argument (a constant)."""
    return any("b" in atom_adornment(atom) for atom in query.body)


@dataclass(frozen=True)
class MagicProgram:
    """The demand transformation of a program for a fixed set of goals."""

    #: the original program the transformation was computed from
    source: DatalogProgram
    #: magic + adorned + copy rules; compiles and evaluates like any program
    program: DatalogProgram
    #: every goal reached from the seeds (requested goals plus derived ones)
    goals: Tuple[Goal, ...]
    #: goal -> adorned predicate (same arity as the original)
    adorned_predicates: Dict[Goal, Predicate]
    #: goal -> magic predicate over the bound positions; ``None`` for
    #: all-free goals (their adorned rules are unguarded)
    magic_predicates: Dict[Goal, Optional[Predicate]]
    #: ground magic facts required by rules whose demand is unconditional
    #: (a bound IDB body atom before any variable got bound)
    static_seeds: Tuple[Atom, ...]
    #: rule counts by role
    adorned_rule_count: int
    magic_rule_count: int
    copy_rule_count: int
    #: original predicates evaluable under this demand (adorned goals plus
    #: the EDB predicates their rule bodies read)
    demanded_predicates: FrozenSet[Predicate]

    def seed_facts(self, query: ConjunctiveQuery) -> Tuple[Atom, ...]:
        """Magic seed facts for a query's constants, plus the static seeds."""
        seeds: Dict[Atom, None] = dict.fromkeys(self.static_seeds)
        for atom in query.body:
            goal = (atom.predicate, atom_adornment(atom))
            magic = self.magic_predicates.get(goal)
            if magic is not None:
                bound_args = tuple(arg for arg in atom.args if arg.is_ground)
                seeds.setdefault(Atom(magic, bound_args), None)
        return tuple(seeds)

    def rewrite_query(self, query: ConjunctiveQuery) -> ConjunctiveQuery:
        """The query with each IDB atom replaced by its adorned predicate."""
        body = []
        for atom in query.body:
            goal = (atom.predicate, atom_adornment(atom))
            adorned = self.adorned_predicates.get(goal)
            body.append(Atom(adorned, atom.args) if adorned is not None else atom)
        return ConjunctiveQuery(query.answer_variables, tuple(body))


class _NamePool:
    """Fresh predicate names that cannot collide with the program's own."""

    def __init__(self, program: DatalogProgram) -> None:
        self._taken: Set[str] = {pred.name for pred in program.predicates()}

    def fresh(self, base: str) -> str:
        name = base
        while name in self._taken:
            name += "_"
        self._taken.add(name)
        return name


def magic_transform(program: DatalogProgram, goals: Sequence[Goal]) -> MagicProgram:
    """Compute the magic-sets transformation of ``program`` for ``goals``.

    Results are cached per (program, goal set): answering many point queries
    with the same shape (e.g. ``reach(c, ?x)`` for varying ``c``) reuses one
    rewritten program — and, through the engine cache, one set of compiled
    join plans — with only the seed facts changing per query.
    """
    key = (program.rules, tuple(sorted(
        (pred.name, pred.arity, adornment) for pred, adornment in goals
    )))
    cached = _TRANSFORM_CACHE.get(key)
    if cached is not None:
        return cached

    idb = program.idb_predicates()
    rules_by_head = program.rules_by_head()
    names = _NamePool(program)
    adorned_predicates: Dict[Goal, Predicate] = {}
    magic_predicates: Dict[Goal, Optional[Predicate]] = {}
    adorned_rules: List[Rule] = []
    magic_rules: List[Rule] = []
    copy_rules: List[Rule] = []
    static_seeds: Dict[Atom, None] = {}
    demanded: Set[Predicate] = set()

    def declare(goal: Goal) -> Predicate:
        """Intern the adorned/magic predicates of a goal; queue it once."""
        existing = adorned_predicates.get(goal)
        if existing is not None:
            return existing
        predicate, adornment = goal
        suffix = adornment if adornment else "n"
        adorned = Predicate(names.fresh(f"{predicate.name}__{suffix}"), predicate.arity)
        adorned_predicates[goal] = adorned
        bound_count = adornment.count("b")
        if bound_count:
            magic = Predicate(
                names.fresh(f"magic__{predicate.name}__{suffix}"), bound_count
            )
        else:
            magic = None
        magic_predicates[goal] = magic
        worklist.append(goal)
        return adorned

    def magic_atom(goal: Goal, args: Tuple[Term, ...]) -> Optional[Atom]:
        magic = magic_predicates[goal]
        if magic is None:
            return None
        _, adornment = goal
        return Atom(magic, tuple(
            arg for arg, mark in zip(args, adornment) if mark == "b"
        ))

    worklist: List[Goal] = []
    for goal in goals:
        if goal[0] in idb:
            declare(goal)

    processed: Set[Goal] = set()
    while worklist:
        goal = worklist.pop()
        if goal in processed:
            continue
        processed.add(goal)
        predicate, adornment = goal
        demanded.add(predicate)
        guard = magic_atom(goal, tuple(
            Variable(f"v{i}") for i in range(predicate.arity)
        ))

        # copy rule: base facts asserted directly on the predicate satisfy
        # every demand pattern over it
        copy_vars = tuple(Variable(f"v{i}") for i in range(predicate.arity))
        copy_body = (guard,) if guard is not None else ()
        copy_rules.append(Rule(
            copy_body + (Atom(predicate, copy_vars),),
            Atom(adorned_predicates[goal], copy_vars),
        ))

        for rule in rules_by_head.get(predicate, ()):
            head_guard = magic_atom(goal, rule.head.args)
            bound: Set[Variable] = set()
            if head_guard is not None:
                bound.update(head_guard.variable_set())
            new_body: List[Atom] = [head_guard] if head_guard is not None else []
            remaining = list(rule.body)
            while remaining:
                atom = remaining.pop(_next_bound_first(remaining, bound, idb))
                if atom.predicate in idb:
                    sub_adornment = "".join(
                        "b" if arg.is_ground or (
                            isinstance(arg, Variable) and arg in bound
                        ) else "f"
                        for arg in atom.args
                    )
                    sub_goal = (atom.predicate, sub_adornment)
                    sub_adorned = declare(sub_goal)
                    demand_head = magic_atom(sub_goal, atom.args)
                    if demand_head is not None:
                        if new_body:
                            # a demand already implied by the guard (common
                            # for linear recursion) adds nothing: skip the
                            # tautological magic rule
                            if demand_head not in new_body:
                                magic_rules.append(Rule(tuple(new_body), demand_head))
                        else:
                            # demand with no prerequisites: the bound args
                            # are all ground, so the demand is a plain fact
                            static_seeds.setdefault(demand_head, None)
                    new_body.append(Atom(sub_adorned, atom.args))
                else:
                    demanded.add(atom.predicate)
                    new_body.append(atom)
                bound.update(atom.variable_set())
            adorned_rules.append(Rule(tuple(new_body), Atom(
                adorned_predicates[goal], rule.head.args
            )))

    transformed = MagicProgram(
        source=program,
        program=DatalogProgram(magic_rules + copy_rules + adorned_rules),
        goals=tuple(sorted(
            adorned_predicates,
            key=lambda goal: (goal[0].name, goal[0].arity, goal[1]),
        )),
        adorned_predicates=adorned_predicates,
        magic_predicates=magic_predicates,
        static_seeds=tuple(static_seeds),
        adorned_rule_count=len(adorned_rules),
        magic_rule_count=len(magic_rules),
        copy_rule_count=len(copy_rules),
        demanded_predicates=frozenset(demanded),
    )
    while len(_TRANSFORM_CACHE) >= TRANSFORM_CACHE_LIMIT:
        _TRANSFORM_CACHE.pop(next(iter(_TRANSFORM_CACHE)))
    _TRANSFORM_CACHE[key] = transformed
    return transformed


def _next_bound_first(
    atoms: Sequence[Atom], bound: Set[Variable], idb: FrozenSet[Predicate]
) -> int:
    """Index of the next body atom under bound-first SIPS.

    Most bound arguments first (ground, or a variable in ``bound``), then
    EDB before IDB atoms, then written order.
    """
    return max(range(len(atoms)), key=lambda index: (
        sum(1 for arg in atoms[index].args if arg.is_ground or arg in bound),
        atoms[index].predicate not in idb,
        -index,
    ))


_TRANSFORM_CACHE: Dict[object, MagicProgram] = {}
TRANSFORM_CACHE_LIMIT = 128


def clear_transform_cache() -> None:
    """Empty the transformation cache (tests, benchmarks)."""
    _TRANSFORM_CACHE.clear()


@dataclass(frozen=True)
class DemandReport:
    """What one demand-driven evaluation did; see the module docstring."""

    adorned_rules: int
    magic_rules: int
    copy_rules: int
    magic_facts: int
    rounds: int
    work: int
    predicates_touched: int
    predicates_total: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "adorned_rules": self.adorned_rules,
            "magic_rules": self.magic_rules,
            "copy_rules": self.copy_rules,
            "magic_facts": self.magic_facts,
            "rounds": self.rounds,
            "work": self.work,
            "predicates_touched": self.predicates_touched,
            "predicates_total": self.predicates_total,
        }


@dataclass(frozen=True)
class DemandAnswer:
    """Answers of a demand-driven evaluation, with its :class:`DemandReport`."""

    answers: FrozenSet[Tuple[Term, ...]]
    report: DemandReport


def demand_answer(
    program: DatalogProgram,
    base_facts: Sequence[Atom] | FrozenSet[Atom],
    query: ConjunctiveQuery,
    max_work: Optional[int] = None,
) -> DemandAnswer:
    """Answer a query goal-directedly: transform, seed, materialize, evaluate.

    Computes the same answers as evaluating the query over the full
    materialization of ``base_facts`` under ``program`` — the magic-sets
    transformation is answer-preserving — while only deriving facts the
    query's bound arguments demand.  The transformed program is served from
    the transformation cache and the shared engine cache, so repeated
    point queries of the same shape pay only for their (small) fixpoint.

    Only the base facts of the demanded predicates and of the query's own
    predicates are read; on a lazy source
    (:class:`repro.kb.format.FactSegments`) the other segments are never
    decoded.  With ``max_work``, the evaluation raises
    :class:`~repro.datalog.engine.BudgetExceeded` once it has spent more
    (see ``work`` in the module docstring).
    """
    transformed = magic_transform(program, query_goals(program, query))
    engine = compiled_engine(transformed.program)
    seeds = transformed.seed_facts(query)
    read = transformed.demanded_predicates.union(atom.predicate for atom in query.body)
    if hasattr(base_facts, "facts_for"):
        base = tuple(base_facts.facts_for(read))
    else:
        base = tuple(fact for fact in base_facts if fact.predicate in read)
    result = engine.materialize(base + seeds, max_work=max_work)
    magic_preds = {
        pred for pred in transformed.magic_predicates.values() if pred is not None
    }
    magic_facts = sum(
        count
        for pred, count in result.store.counts_by_predicate().items()
        if pred in magic_preds
    )
    report = DemandReport(
        adorned_rules=transformed.adorned_rule_count,
        magic_rules=transformed.magic_rule_count,
        copy_rules=transformed.copy_rule_count,
        magic_facts=magic_facts,
        rounds=result.rounds,
        work=result.rule_applications + result.join_stats["batches"],
        predicates_touched=len(transformed.demanded_predicates),
        predicates_total=len(program.predicates()),
    )
    answers = evaluate_query(transformed.rewrite_query(query), result.store)
    return DemandAnswer(answers=answers, report=report)
