"""Compiled join plans for the chase: Skolem heads and semi-naive delta loops.

The Datalog engine's hash-join pipelines (:mod:`repro.datalog.plan`) evaluate
*function-free* rules set-at-a-time.  The Skolem chase evaluates *Skolemized*
rules: bodies are still function-free conjunctions (so the compiled
:class:`~repro.datalog.plan.PlanVariant` pipelines apply unchanged — a body
variable simply binds to whatever ground term a fact carries, Skolem terms
included), but heads may contain function terms ``f(x̄)`` that the Datalog
head projection cannot build.  This module supplies the two missing pieces:

* :class:`SkolemRulePlan` — per-rule compiled plan variants (one per
  semi-naive pivot, cached for the chase's lifetime) plus a head *builder*
  compiled from the head atom: each argument is a column read, a constant,
  or a recursive Skolem-term constructor over column reads, so projecting a
  match batch allocates one interned :class:`~repro.logic.terms.FunctionTerm`
  per row and nesting level instead of running a substitution per match.
* :func:`run_semi_naive_chase` — the delta-driven fixpoint used by
  :meth:`repro.chase.skolem_chase.SkolemChase.run`: round 0 evaluates every
  rule's no-pivot pipeline over the base facts, then each round commits the
  pending facts as the new delta and evaluates only the (rule, pivot)
  variants whose pivot predicate received delta facts.  The depth bound is
  applied batch-wise to the projected head facts (``Atom.depth`` is cached on
  interned atoms), and the ``max_facts`` cutoff fires during the commit phase
  exactly as the naive loop's mid-round cutoff does.

Reading the chase-plan counters
-------------------------------

Every :meth:`~repro.chase.skolem_chase.SkolemChase.run` result carries a
:class:`ChasePlanStats` snapshot as ``plan_stats``:

* ``rounds`` — semi-naive delta rounds after the initial full pass;
* ``delta_facts`` — facts committed across all deltas (equals the derived
  fact count: every fact enters exactly one delta); ``max_delta`` is the
  largest single round's delta — a shrinking tail of small deltas is the
  signature of work proportional to *new* consequences only;
* ``depth_pruned`` — head facts discarded by the term-depth bound (each one
  also marks the run unsaturated, exactly like the naive loop);
* ``batches`` / ``probes`` / ``probe_hits`` / ``hit_rate`` /
  ``rows_emitted`` / short-circuit counters — the underlying join-pipeline
  counters, same meaning as the ``join_plan`` block
  (see :mod:`repro.datalog.plan`);
* ``plans_compiled`` — distinct (rule, pivot) pipelines compiled; flat
  across rounds because variants are cached on the rule plan.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..datalog.plan import BindingBatch, JoinPlanStats, PlanVariant, body_supports_plan
from ..datalog.store import FactStore, Row, TermTable
from ..logic.atoms import Atom, Predicate
from ..logic.rules import Rule
from ..logic.terms import FunctionTerm, Term, Variable


class ChasePlanStats:
    """Counters for one semi-naive chase run (see the module docstring)."""

    __slots__ = ("join", "rounds", "delta_facts", "max_delta", "depth_pruned")

    def __init__(self) -> None:
        self.join = JoinPlanStats()
        self.rounds = 0
        self.delta_facts = 0
        self.max_delta = 0
        self.depth_pruned = 0

    def snapshot(self, plans_compiled: int = 0) -> Dict[str, object]:
        block: Dict[str, object] = {
            "rounds": self.rounds,
            "delta_facts": self.delta_facts,
            "max_delta": self.max_delta,
            "depth_pruned": self.depth_pruned,
        }
        block.update(self.join.snapshot())
        block["plans_compiled"] = plans_compiled
        return block


#: compiled head-argument source: a constant, a batch column, or a Skolem
#: term built recursively from such sources
_Source = Tuple


def _compile_term_source(term: Term) -> _Source:
    if isinstance(term, Variable):
        return ("var", term)
    if isinstance(term, FunctionTerm) and not term.is_ground:
        return (
            "func",
            term.symbol,
            tuple(_compile_term_source(arg) for arg in term.args),
        )
    return ("const", term)


def _column_iter(
    source: _Source, columns: Dict[Variable, List[int]], size: int, table: TermTable
) -> Iterator[Term]:
    """One value per batch row for a compiled head-argument source.

    Batch columns carry term IDs; ``var`` sources decode them here — the
    Skolem head builder is a term-constructing boundary, so this is where
    the chase leaves row space.
    """
    kind = source[0]
    if kind == "var":
        decode = table.decode
        return (decode(value) for value in columns[source[1]])
    if kind == "const":
        return repeat(source[1], size)
    symbol = source[1]
    sub_iters = [_column_iter(sub, columns, size, table) for sub in source[2]]
    return (FunctionTerm(symbol, args) for args in zip(*sub_iters))


class SkolemRulePlan:
    """Compiled plan variants plus Skolem-aware head projection for one rule."""

    __slots__ = ("rule", "_variants", "_head_sources")

    def __init__(self, rule: Rule) -> None:
        self.rule = rule
        self._variants: Dict[Optional[int], PlanVariant] = {}
        self._head_sources: Tuple[_Source, ...] = tuple(
            _compile_term_source(arg) for arg in rule.head.args
        )

    @property
    def compiled_variant_count(self) -> int:
        return len(self._variants)

    def variant(self, pivot: Optional[int]) -> PlanVariant:
        variant = self._variants.get(pivot)
        if variant is None:
            variant = PlanVariant(self.rule.body, pivot)
            self._variants[pivot] = variant
        return variant

    def project_head(self, batch: BindingBatch, table: TermTable) -> Iterator[Atom]:
        """Instantiate the (possibly Skolem-term) head for every match row."""
        if not batch.size:
            return
        head = self.rule.head
        if not self._head_sources:
            yield from repeat(head, batch.size)
            return
        predicate = head.predicate
        arg_iters = [
            _column_iter(source, batch.columns, batch.size, table)
            for source in self._head_sources
        ]
        for args in zip(*arg_iters):
            yield Atom(predicate, args)


def compile_chase_plans(rules: Iterable[Rule]) -> Optional[Tuple[SkolemRulePlan, ...]]:
    """Compile one :class:`SkolemRulePlan` per rule, or ``None`` if any body
    falls outside what the hash-join pipelines compute exactly (a non-ground
    function term in a body atom — impossible for Skolemized TGDs, whose
    bodies are the original function-free TGD bodies, but checked so exotic
    callers fall back to the naive reference instead of silently mismatching).
    """
    plans: List[SkolemRulePlan] = []
    for rule in rules:
        if not body_supports_plan(rule.body):
            return None
        plans.append(SkolemRulePlan(rule))
    return tuple(plans)


def run_semi_naive_chase(
    plans: Sequence[SkolemRulePlan],
    seed_facts: Iterable[Atom],
    max_term_depth: int,
    max_facts: int,
    stats: Optional[ChasePlanStats] = None,
) -> Tuple[Set[Atom], bool, int]:
    """Saturate ``seed_facts`` under the compiled rules, delta-driven.

    Returns ``(facts, saturated, rounds)`` with the same semantics as the
    naive :meth:`SkolemChase.run` loop: ``saturated`` is ``False`` iff some
    enumerated rule application produced a head fact beyond the depth bound
    (or the ``max_facts`` cutoff fired), and the cutoff aborts mid-commit so
    the result overshoots ``max_facts`` by at most one round's delta.
    """
    stats = stats or ChasePlanStats()
    join_stats = stats.join
    store = FactStore(seed_facts)
    by_pivot: Dict[Predicate, List[Tuple[SkolemRulePlan, int]]] = {}
    for plan in plans:
        for pivot, atom in enumerate(plan.rule.body):
            by_pivot.setdefault(atom.predicate, []).append((plan, pivot))

    saturated = True
    rounds = 0

    def project(plan: SkolemRulePlan, batch: BindingBatch, pending: Set[Atom]) -> None:
        nonlocal saturated
        for fact in plan.project_head(batch, store.terms):
            if fact.depth > max_term_depth:
                saturated = False
                stats.depth_pruned += 1
                continue
            if fact not in store and fact not in pending:
                pending.add(fact)

    # round 0: full no-pivot pass so every rule fires at least once even if
    # its body predicates never receive a delta
    pending: Set[Atom] = set()
    for plan in plans:
        project(plan, plan.variant(None).execute(store, None, join_stats), pending)

    while pending:
        rounds += 1
        stats.rounds += 1
        stats.delta_facts += len(pending)
        if len(pending) > stats.max_delta:
            stats.max_delta = len(pending)
        # pending facts stay atoms (the depth bound reads term structure);
        # the delta handed back to the join pipelines is encoded rows
        delta_by_predicate: Dict[Predicate, List[Row]] = {}
        for fact in pending:
            predicate, row = store.encode_fact(fact)
            if store.add_row(predicate, row):
                bucket = delta_by_predicate.get(predicate)
                if bucket is None:
                    delta_by_predicate[predicate] = [row]
                else:
                    bucket.append(row)
                if len(store) > max_facts:
                    return set(store), False, rounds
        pending = set()
        # each (plan, pivot) entry is registered under exactly one predicate
        # (its pivot atom's), so this visits every affected variant once
        for predicate in delta_by_predicate:
            for plan, pivot in by_pivot.get(predicate, ()):
                batch = plan.variant(pivot).execute(
                    store, delta_by_predicate, join_stats
                )
                project(plan, batch, pending)
    return set(store), saturated, rounds
