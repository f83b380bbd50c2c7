"""Semi-naive bottom-up Datalog evaluation over compiled hash-join plans.

Given a Datalog program and a base instance, :class:`DatalogEngine` computes
the *materialization*: the least set of facts containing the base instance
and closed under the rules.  Evaluation is semi-naive — in every round, each
rule is evaluated only over joins that use at least one fact derived in the
previous round — and *set-at-a-time*: each rule/pivot pair is compiled once
into a pipeline of hash joins over columnar binding batches
(:mod:`repro.datalog.plan`) instead of enumerating substitutions one tuple
at a time.  This is the standard technique used by production Datalog
systems (the paper uses RDFox for the end-to-end experiment in Section 7.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..logic.atoms import Atom, Predicate
from ..logic.instance import Instance
from ..logic.rules import Rule
from .plan import JoinPlanStats, RulePlan
from .program import DatalogProgram
from .store import FactStore, Row

#: a stored fact in row space
Fact = Tuple[Predicate, Row]


class BudgetExceeded(Exception):
    """A budgeted :meth:`DatalogEngine.materialize` call ran out of work.

    One unit of work is a rule application or a join step (one
    :attr:`~repro.datalog.plan.JoinPlanStats.batches` count).  The call
    checks its budget after round 0 and after every semi-naive round, so it
    stops at most one round past ``limit``.  The signal travels in the
    exception, never in the engine, which sessions on several threads share.
    """

    def __init__(self, limit: int, spent: int, rounds: int) -> None:
        # the counts are the args, so the exception pickles across processes
        super().__init__(limit, spent, rounds)
        self.limit = limit
        self.spent = spent
        self.rounds = rounds

    def __str__(self) -> str:
        return (
            f"work budget of {self.limit} spent: "
            f"{self.spent} units after {self.rounds} rounds"
        )


@dataclass
class MaterializationResult:
    """The outcome of a materialization run."""

    store: FactStore
    rounds: int
    derived_count: int
    rule_applications: int
    #: per-call join-plan execution counters (see plan.JoinPlanStats)
    join_stats: Optional[Dict[str, object]] = None

    def facts(self) -> FrozenSet[Atom]:
        return self.store.facts()

    def __contains__(self, fact: Atom) -> bool:
        return fact in self.store

    def __len__(self) -> int:
        return len(self.store)


@dataclass(frozen=True)
class DeltaUpdateResult:
    """The outcome of one incremental :meth:`DatalogEngine.extend` call.

    ``added_facts`` counts the delta facts that were genuinely new (not
    already in the store); ``derived_count`` counts only the facts *inferred*
    from them by delta propagation.
    """

    added_facts: int
    derived_count: int
    rounds: int
    rule_applications: int
    #: per-call join-plan execution counters (see plan.JoinPlanStats)
    join_stats: Optional[Dict[str, object]] = None

    @property
    def total_new_facts(self) -> int:
        return self.added_facts + self.derived_count


@dataclass(frozen=True)
class RetractionResult:
    """The outcome of one incremental :meth:`DatalogEngine.retract` call.

    Mirrors :class:`DeltaUpdateResult` for the deletion direction.
    ``retracted_facts`` counts the input facts that actually were base facts
    (and so were un-asserted); ``ignored_facts`` counts inputs skipped per
    the retraction contract (never added, or present only as derived).
    ``overdeleted`` counts the facts removed beyond the retracted ones, and
    ``net_removed`` the store shrinkage —
    ``len(store_before) - len(store_after)``.  ``rederived`` is always 0:
    DRed re-derived over-deleted facts, but B/F never removes a fact that
    has a proof (see :meth:`DatalogEngine.retract`); the field stays for
    the callers that report it.  ``rule_applications`` counts the rule
    instances that the deletion rounds enumerate from removed facts, and
    those that the backward checks enumerate and their forward step fires.
    """

    retracted_facts: int
    ignored_facts: int
    overdeleted: int
    rederived: int
    net_removed: int
    rounds: int
    rule_applications: int
    #: per-call join-plan execution counters (see plan.JoinPlanStats)
    join_stats: Optional[Dict[str, object]] = None


class DatalogEngine:
    """Semi-naive evaluation of a Datalog program via compiled join plans.

    Plans (one :class:`~repro.datalog.plan.RulePlan` per rule, with lazily
    compiled per-pivot variants) are built once per engine and reused across
    every :meth:`materialize` round and every :meth:`extend` delta
    propagation — sessions and knowledge bases share one engine per program
    via :func:`compiled_engine`.
    """

    def __init__(self, program: DatalogProgram) -> None:
        self.program = program
        self._rules_by_body = program.rules_by_body_predicate()
        self._rules_by_head = program.rules_by_head()
        self._plans: Dict[Rule, RulePlan] = {rule: RulePlan(rule) for rule in program}

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def materialize(
        self,
        instance: Instance | Iterable[Atom],
        max_work: Optional[int] = None,
    ) -> MaterializationResult:
        """Compute the fixpoint of the program on the given instance.

        With ``max_work``, raise :class:`BudgetExceeded` once the call's rule
        applications plus join steps pass it; a call that returns has spent
        at most ``max_work``.
        """
        store = FactStore(instance)
        stats = JoinPlanStats()

        # Round 0: a full naive pass so that rules whose body mentions only
        # EDB facts fire at least once even if the EDB predicates never
        # appear in any delta.
        applications = 0
        new_rows: Set[Tuple[Predicate, Row]] = set()
        for rule in self.program:
            plan = self._plans[rule]
            batch = plan.variant(None).execute(store, None, stats)
            if not batch.size:
                continue
            applications += batch.size
            head_predicate = rule.head.predicate
            relation = store.relation_rows(head_predicate)
            for row in plan.project_rows(batch, store):
                if row not in relation:
                    new_rows.add((head_predicate, row))
        _check_work(max_work, applications + stats.batches, 0)
        rounds, derived, loop_applications = self._fixpoint_loop(
            store, new_rows, stats, max_work, applications
        )
        return MaterializationResult(
            store=store,
            rounds=rounds,
            derived_count=derived,
            rule_applications=applications + loop_applications,
            join_stats=stats.snapshot(),
        )

    def extend(
        self,
        store: FactStore,
        facts: Instance | Iterable[Atom],
    ) -> DeltaUpdateResult:
        """Propagate a delta of new facts through a store already at fixpoint.

        The store is mutated in place.  Instead of re-running the full naive
        round-0 pass of :meth:`materialize`, the semi-naive loop is seeded
        with the new facts: any derivation not available before the update
        must use at least one of them, so this computes the same fixpoint as
        re-materializing from scratch while doing work proportional to the
        consequences of the delta only.  The compiled plans are the same
        objects used by full materialization — the delta rides the identical
        fast path.
        """
        # encode at the boundary: assertions enter row space here and the
        # whole propagation stays in it
        asserted = {store.encode_fact(fact) for fact in facts}
        seed = {pair for pair in asserted if not store.contains_row(*pair)}
        added = len(seed)
        stats = JoinPlanStats()
        rounds, derived, applications = self._fixpoint_loop(store, seed, stats)
        # assertions become base facts even when already derivable — they
        # must survive a later retraction of their derivers (retraction contract)
        for predicate, row in asserted:
            if not store.is_base_row(predicate, row):
                store.mark_base_row(predicate, row)
        return DeltaUpdateResult(
            added_facts=added,
            derived_count=derived - added,
            rounds=rounds,
            rule_applications=applications,
            join_stats=stats.snapshot(),
        )

    def retract(
        self,
        store: FactStore,
        facts: Instance | Iterable[Atom],
    ) -> RetractionResult:
        """Un-assert base facts from a store at fixpoint, Backward/Forward style.

        The store is mutated in place and ends exactly where re-materializing
        the surviving base facts from scratch would land.  Backward/Forward
        maintenance (B/F; Motik, Nenov, Piro and Horrocks, AAAI 2015) looks
        for another proof of a fact before deleting it, so the work follows
        the net change rather than the whole derivation cone.

        The retracted facts, unmarked as base, are the first round's
        candidates.  Each candidate is checked for a proof from the
        surviving base facts (:class:`_ProofSearch`).  The round's unproved
        candidates are removed together; first their consequences are
        enumerated through the per-rule :class:`PlanVariant` pipelines
        :meth:`extend` uses, pivoted on them while they are still in the
        store, so a derivation pairing two same-round deletions is found
        through either pivot.  Those consequences are the next round's
        candidates.

        Nothing removed ever needs restoring, so DRed's re-derivation step
        has no counterpart here: a candidate is removed only when its
        finished check found no proof in the current store, and within the
        call the store only shrinks while base marks stay put, so a removed
        fact never gains a proof.

        Contract: inputs that are not in the store, or that are present only
        as derived facts, are ignored (counted in ``ignored_facts``) — an
        inference cannot be deleted away while its premises remain.
        Retracting a base fact that is still derivable demotes it to derived
        rather than removing it.
        """
        requested = {fact for fact in facts}
        # boundary encoding: a requested fact whose terms the table has
        # never seen cannot be in the store, let alone base — it is ignored
        seeds: Set[Fact] = set()
        for fact in requested:
            found = store.find_fact(fact)
            if found is not None and store.is_base_row(*found):
                seeds.add(found)
        ignored = len(requested) - len(seeds)
        stats = JoinPlanStats()
        size_before = len(store)
        for predicate, row in seeds:
            store.unmark_base_row(predicate, row)

        search = _ProofSearch(self._plans, self._rules_by_head, store, stats)
        proved = search.proved
        removed: Set[Fact] = set()
        delta = seeds
        rounds = 0
        applications = 0
        while delta:
            rounds += 1
            for pair in delta:
                search.check(pair)
            unproved = [pair for pair in delta if pair not in proved]
            removed.update(unproved)
            unproved_by_predicate: Dict[Predicate, List[Row]] = {}
            for predicate, row in unproved:
                unproved_by_predicate.setdefault(predicate, []).append(row)
            candidates: Set[Fact] = set()
            for rule in self._rules_touching(unproved_by_predicate.keys()):
                plan = self._plans[rule]
                for pivot, atom in enumerate(rule.body):
                    if atom.predicate not in unproved_by_predicate:
                        continue
                    batch = plan.variant(pivot).execute_deletion(
                        store, unproved_by_predicate, stats
                    )
                    if not batch.size:
                        continue
                    applications += batch.size
                    head_predicate = rule.head.predicate
                    for row in plan.project_rows(batch, store):
                        pair = (head_predicate, row)
                        if (
                            pair not in removed
                            and pair not in proved
                            and store.contains_row(head_predicate, row)
                            and not store.is_base_row(head_predicate, row)
                        ):
                            candidates.add(pair)
            for predicate, row in unproved:
                store.remove_row(predicate, row)
            delta = candidates

        return RetractionResult(
            retracted_facts=len(seeds),
            ignored_facts=ignored,
            overdeleted=len(removed - seeds),
            rederived=0,
            net_removed=size_before - len(store),
            rounds=rounds,
            rule_applications=applications + search.applications,
            join_stats=stats.snapshot(),
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _fixpoint_loop(
        self,
        store: FactStore,
        new_rows: Set[Tuple[Predicate, Row]],
        stats: JoinPlanStats,
        max_work: Optional[int] = None,
        spent: int = 0,
    ) -> Tuple[int, int, int]:
        """The shared semi-naive loop; returns (rounds, added, applications).

        ``new_rows`` is the seed delta — (predicate, row) pairs not yet in
        the store.  Every round commits the pending rows, then evaluates
        each rule/pivot plan variant with the pivot atom restricted to the
        committed delta.  The loop never leaves row space.  After each
        round, ``spent`` plus the loop's applications plus ``stats.batches``
        is checked against ``max_work`` (see :class:`BudgetExceeded`).
        """
        rounds = 0
        added = 0
        applications = 0
        plans = self._plans
        while new_rows:
            rounds += 1
            delta_by_predicate: Dict[Predicate, List[Row]] = {}
            for predicate, row in new_rows:
                if store.add_row(predicate, row):
                    added += 1
                    bucket = delta_by_predicate.get(predicate)
                    if bucket is None:
                        delta_by_predicate[predicate] = [row]
                    else:
                        bucket.append(row)
            new_rows = set()
            for rule in self._rules_touching(delta_by_predicate.keys()):
                plan = plans[rule]
                for pivot, atom in enumerate(rule.body):
                    if atom.predicate not in delta_by_predicate:
                        continue
                    batch = plan.variant(pivot).execute(
                        store, delta_by_predicate, stats
                    )
                    if not batch.size:
                        continue
                    applications += batch.size
                    head_predicate = rule.head.predicate
                    relation = store.relation_rows(head_predicate)
                    for row in plan.project_rows(batch, store):
                        if row not in relation:
                            new_rows.add((head_predicate, row))
            _check_work(max_work, spent + applications + stats.batches, rounds)
        return rounds, added, applications

    def _rules_touching(self, delta_predicates: Iterable[Predicate]) -> Tuple[Rule, ...]:
        """Rules whose body mentions a predicate with new facts."""
        seen: Set[Rule] = set()
        ordered: List[Rule] = []
        for predicate in delta_predicates:
            for rule in self._rules_by_body.get(predicate, ()):
                if rule not in seen:
                    seen.add(rule)
                    ordered.append(rule)
        return tuple(ordered)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def compiled_plan_count(self) -> int:
        """Distinct (rule, pivot) variants compiled so far (cached for life).

        The head-bound variants of retraction's backward checks are not
        counted.
        """
        return sum(plan.compiled_variant_count for plan in self._plans.values())

    def plan_shapes(self) -> Tuple[str, ...]:
        """Compact pipeline summaries of every rule plan (sorted, deduped).

        Only the no-pivot variant is summarized; pivot variants share the
        same heuristic and differ only in which atom leads.
        """
        return tuple(sorted({plan.shape() for plan in self._plans.values()}))


def _check_work(max_work: Optional[int], spent: int, rounds: int) -> None:
    if max_work is not None and spent > max_work:
        raise BudgetExceeded(max_work, spent, rounds)


class _ProofSearch:
    """B/F's provability check for one :meth:`DatalogEngine.retract` call.

    ``checked`` (C) and ``proved`` (P) persist across the call's rounds.
    A base fact is proved at once; any other fact is proved once every body
    fact of some rule instance deriving it is proved.  :meth:`check` walks
    backwards from a fact over the head-bound plan variants
    (:meth:`RulePlan.derivations`), checking each instance's body facts
    depth-first on an explicit stack, so the search depth is not bounded by
    the interpreter's recursion limit.  A checked fact that is not proved
    yet files each of its instances under the instance's unproved body
    facts; when one of those is proved, the forward step (B/F's saturation)
    re-tests just those instances.

    Once a top-level check returns, a checked fact is unproved only if no
    proof of it lies within the current store: every instance of every
    fact on such a proof was enumerated and its body facts checked.
    """

    __slots__ = (
        "plans",
        "rules_by_head",
        "store",
        "stats",
        "checked",
        "proved",
        "waiting",
        "applications",
    )

    def __init__(
        self,
        plans: Dict[Rule, RulePlan],
        rules_by_head: Dict[Predicate, Tuple[Rule, ...]],
        store: FactStore,
        stats: JoinPlanStats,
    ) -> None:
        self.plans = plans
        self.rules_by_head = rules_by_head
        self.store = store
        self.stats = stats
        self.checked: Set[Fact] = set()
        self.proved: Set[Fact] = set()
        # unproved body fact -> the (head, body) instances waiting on it
        self.waiting: Dict[Fact, List[Tuple[Fact, Tuple[Fact, ...]]]] = {}
        #: rule instances enumerated backwards or fired forwards
        self.applications = 0

    def check(self, goal: Fact) -> bool:
        """Whether ``goal`` is provable from the store's base facts."""
        if goal not in self.checked:
            stack: List[Tuple[Fact, Iterator[Fact]]] = []
            self._open(goal, stack)
            while stack:
                head, pending = stack[-1]
                if head in self.proved:
                    stack.pop()
                    continue
                for fact in pending:
                    if fact not in self.checked:
                        self._open(fact, stack)
                        break
                else:
                    stack.pop()
        return goal in self.proved

    def _open(self, fact: Fact, stack: List[Tuple[Fact, Iterator[Fact]]]) -> None:
        """Mark ``fact`` checked; prove it now, or push its body facts."""
        self.checked.add(fact)
        if self._known(fact):
            return
        predicate, row = fact
        pending: List[Tuple[Tuple[Fact, ...], List[Fact]]] = []
        for rule in self.rules_by_head.get(predicate, ()):
            for body in self.plans[rule].derivations(self.store, row, self.stats):
                self.applications += 1
                missing = [item for item in body if not self._known(item)]
                if not missing:
                    # the cheap check: some instance's body is already proved
                    self.proved.add(fact)
                    self._saturate(fact)
                    return
                pending.append((body, missing))
        waiting = self.waiting
        for body, missing in pending:
            for item in missing:
                waiting.setdefault(item, []).append((fact, body))
        if pending:
            stack.append((fact, chain.from_iterable(missing for _, missing in pending)))

    def _known(self, fact: Fact) -> bool:
        """Whether ``fact`` is proved; a base fact is proved on first sight."""
        if fact in self.proved:
            return True
        if self.store.is_base_row(*fact):
            self.proved.add(fact)
            return True
        return False

    def _saturate(self, fact: Fact) -> None:
        """Forward step: prove the waiting heads whose bodies are now proved."""
        proved = self.proved
        queue = [fact]
        while queue:
            for head, body in self.waiting.pop(queue.pop(), ()):
                if head not in proved and all(item in proved for item in body):
                    proved.add(head)
                    self.applications += 1
                    queue.append(head)


# ----------------------------------------------------------------------
# shared compiled engines
# ----------------------------------------------------------------------
_ENGINE_CACHE: Dict[Tuple[Rule, ...], DatalogEngine] = {}
ENGINE_CACHE_LIMIT = 64


def compiled_engine(program: DatalogProgram) -> DatalogEngine:
    """A shared engine for the program, with plans compiled exactly once.

    Keyed by the program's (interned) rule tuple, so every session, one-shot
    materialization, and knowledge base serving the same rewriting reuses
    one set of compiled plans.  Engines keep no state beyond their plans:
    each call counts its join work into its own block.
    """
    key = program.rules
    engine = _ENGINE_CACHE.get(key)
    if engine is None:
        while len(_ENGINE_CACHE) >= ENGINE_CACHE_LIMIT:
            _ENGINE_CACHE.pop(next(iter(_ENGINE_CACHE)))
        engine = DatalogEngine(program)
        _ENGINE_CACHE[key] = engine
    return engine


def clear_engine_cache() -> None:
    """Empty the shared-engine cache (tests, benchmarks)."""
    _ENGINE_CACHE.clear()


def materialize(
    program: DatalogProgram | Iterable[Rule],
    instance: Instance | Iterable[Atom],
) -> MaterializationResult:
    """Convenience wrapper: materialize a program (or iterable of rules).

    Served through the shared engine cache, so repeated one-shot
    materializations of the same program skip plan compilation.
    """
    if not isinstance(program, DatalogProgram):
        program = DatalogProgram(program)
    return compiled_engine(program).materialize(instance)
