"""Long-lived reasoning sessions with incremental materialization.

The paper's deployment mode is "compile Σ once, serve many instances and
queries".  A :class:`ReasoningSession` is the serving half of that story: it
keeps the materialized :class:`~repro.datalog.store.FactStore` alive across
calls, so

* ``add_facts(delta)`` propagates a batch of new base facts by *true
  semi-naive delta propagation* — the fixpoint loop is seeded with the new
  facts (:meth:`DatalogEngine.extend`) instead of re-running the whole
  materialization, doing work proportional to the consequences of the delta;
* ``retract_facts(delta)`` un-asserts base facts by Backward/Forward
  maintenance (B/F, :meth:`DatalogEngine.retract`): each deletion candidate
  is first checked for another proof from the surviving base facts, and
  only unproved ones are removed and propagated through the same compiled
  join plans — sessions shrink as cheaply as they grow;
* ``answer(query)`` / ``answer_many(queries)`` evaluate existential-free
  conjunctive queries against the live materialization with no per-call
  setup — or, via :class:`~repro.datalog.query.QueryOptions`, goal-directedly
  through the magic-sets transformation (:mod:`repro.datalog.magic`); and
* ``snapshot()`` returns an immutable :class:`MaterializationResult` over a
  copy of the store, decoupled from later updates.

A session holds its base facts as one encoded
:class:`~repro.datalog.store.FactStore`.  Constructed with
``defer_materialization=True``, it starts *cold*: that store holds the base
facts only, and nothing is materialized until something needs the full
fixpoint (a materialized answer, a mutation, a snapshot).  Warming loads
whatever a lazy source has not yet delivered and materializes the store in
place, so each base fact is encoded once over the session's life.  Demand
evaluations on a cold session read it and leave it unchanged: each runs on
a copy of the predicates it reads.  The ``auto`` strategy answers a bound
query on a cold session demand-driven, under a work budget equal to
:attr:`~ReasoningSession.base_fact_count`.  A demand evaluation that stays
within the budget leaves the session cold; one that spends it gives way (a
*cutover*): the session warms and answers from the materialization.
Loading and indexing the base facts is the floor of any materialization, so
the budget is about the least a materialization costs, and a cutover costs
the materialization plus that budget plus at most one more round of demand
evaluation.

The budget bounds ``auto`` against materialization only, not against
demand: a demand evaluation that needs a few units per base fact cuts over
even where materializing costs far more.  On a chain of N edges under
transitive closure, demand for ``Reach(n0, ?y)`` does 4N + 2 units, the
materialization N(N + 1)/2 + 2N + 1, and ``auto`` pays the latter.  An
explicit ``"demand"`` strategy is never budgeted and never warms the
session.

Sessions are obtained from :meth:`repro.api.KnowledgeBase.session` (which
supplies the compiled rewriting) or constructed directly from any Datalog
program.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from ..logic.atoms import Atom, Predicate
from ..logic.instance import Instance
from ..logic.rules import Rule
from ..logic.terms import Term
from ..obs import Counters
from .engine import (
    BudgetExceeded,
    DatalogEngine,
    DeltaUpdateResult,
    MaterializationResult,
    RetractionResult,
    compiled_engine,
)
from .store import FactStore
from .magic import demand_answer, demand_reads, query_has_bound_arguments
from .program import DatalogProgram
from .plan import JoinPlanStats
from .query import ConjunctiveQuery, QueryOptions, evaluate_query


def _is_lazy_fact_source(instance: object) -> bool:
    """Whether the initial instance loads facts per predicate on demand.

    Duck-typed on the :class:`repro.kb.format.FactSegments` surface
    (``facts_for`` + ``predicates``) so the session layer stays independent
    of the persistence layer.
    """
    return hasattr(instance, "facts_for") and hasattr(instance, "predicates")


class _DemandStats(Counters):
    """Demand-driven answers on one session (see ``demand_stats``).

    ``predicates_touched`` keeps a maximum, not a sum, so these blocks are
    never merged.
    """

    __slots__ = ("queries", "cutovers", "magic_facts", "rounds", "predicates_touched")


class ReasoningSession:
    """A live materialization of one Datalog program, updated by deltas."""

    def __init__(
        self,
        program: DatalogProgram | Iterable[Rule],
        instance: Instance | Iterable[Atom] = (),
        engine: DatalogEngine | None = None,
        *,
        defer_materialization: bool = False,
    ) -> None:
        if engine is not None:
            self._engine = engine
        else:
            if not isinstance(program, DatalogProgram):
                program = DatalogProgram(program)
            # the shared engine cache means every session over the same
            # program reuses one set of compiled join plans
            self._engine = compiled_engine(program)
        # a *lazy* fact source (e.g. repro.kb.format.FactSegments) is kept
        # as-is instead of being flattened: demand answers on a cold session
        # encode only the predicates their magic program reads, and the
        # remaining segments stay undecoded until the session warms
        lazy = _is_lazy_fact_source(instance)
        self._lazy_source = instance if lazy else None
        # its predicates not yet encoded, in the source's order
        self._unloaded: Dict[Predicate, None] = (
            dict.fromkeys(instance.predicates()) if lazy else {}
        )
        # the base facts, encoded once; warming materializes this store
        self._store = FactStore(() if lazy else instance)
        self._cold = True
        self._rounds = 0
        self._derived = 0
        self._applications = 0
        self._added_facts = 0
        self._retracted_facts = 0
        self._updates = 0
        self._retractions = 0
        self._join_stats = JoinPlanStats()
        self._demand_stats = _DemandStats()
        if not defer_materialization:
            self._warm()

    def _load(self, predicates: AbstractSet[Predicate]) -> None:
        """Encode the lazy source's facts of ``predicates`` into the base store."""
        wanted = [predicate for predicate in self._unloaded if predicate in predicates]
        for predicate in wanted:
            del self._unloaded[predicate]
        self._store.add_base_facts(self._lazy_source.facts_for(wanted))
        if not self._unloaded:
            self._lazy_source = None

    def _warm(self) -> FactStore:
        """The live store, materializing the base store in place on first use."""
        store = self._store
        if self._cold:
            if self._lazy_source is not None:
                self._load(self._unloaded.keys())
            initial = self._engine.materialize_store(store)
            self._cold = False
            self._rounds += initial.rounds
            self._derived += initial.derived_count
            self._applications += initial.rule_applications
            # counted directly from the store's base bookkeeping, not by
            # subtracting derived_count from the store size: the subtraction
            # miscounts duplicated inputs and goes stale once retraction
            # shrinks the store
            self._added_facts += store.base_count
            self._join_stats.merge(initial.join_stats)
        return store

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def program(self) -> DatalogProgram:
        return self._engine.program

    @property
    def store(self) -> FactStore:
        """The live store (mutated by :meth:`add_facts`/:meth:`retract_facts`).

        Accessing it warms a cold session (full materialization).
        """
        return self._warm()

    @property
    def is_cold(self) -> bool:
        """``True`` until the full materialization has been computed.

        Sessions opened with ``defer_materialization=True`` start cold and
        stay cold across demand-driven answers; any materialized-path access
        (mutations, snapshots, materialized answers, an ``auto`` cutover,
        the store itself) warms them permanently.
        """
        return self._cold

    @property
    def update_count(self) -> int:
        """Number of :meth:`add_facts` calls served so far."""
        return self._updates

    @property
    def retraction_count(self) -> int:
        """Number of :meth:`retract_facts` calls served so far."""
        return self._retractions

    @property
    def derived_count(self) -> int:
        """Total facts inferred over the session's lifetime.

        A lifetime counter: it never decreases, even when retraction later
        removes some of those inferences again.  The live store composition
        is :attr:`base_fact_count` plus ``len(session) - base_fact_count``.
        """
        return self._derived

    @property
    def added_facts(self) -> int:
        """Total input facts accepted (initial instance plus all deltas).

        Lifetime counter, tracked directly from the engine's per-call
        reports; see :attr:`base_fact_count` for the live number of
        currently-asserted facts.
        """
        return self._added_facts

    @property
    def retracted_facts(self) -> int:
        """Total base facts un-asserted over the session's lifetime."""
        return self._retracted_facts

    @property
    def base_fact_count(self) -> int:
        """Currently-asserted base facts (survivors of every add/retract)."""
        if self._lazy_source is not None:
            # segments are deduplicated on save, so the declared total is
            # exact and costs no decoding
            return len(self._lazy_source)
        return self._store.base_count

    @property
    def join_stats(self) -> dict:
        """Cumulative join-plan counters over the session's lifetime.

        Merges the per-call snapshots of the initial materialization, every
        delta propagation and every retraction (the
        :class:`~repro.datalog.plan.JoinPlanStats` counters), with
        ``hit_rate`` recomputed over the totals.
        """
        return self._join_stats.snapshot()

    def __len__(self) -> int:
        return len(self._warm())

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._warm()

    def facts(self) -> FrozenSet[Atom]:
        return self._warm().facts()

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def add_facts(self, facts: Instance | Iterable[Atom]) -> DeltaUpdateResult:
        """Add base facts and propagate their consequences incrementally.

        Facts already present (base or previously derived) are ignored.  The
        returned :class:`DeltaUpdateResult` reports how many input facts were
        new, how many further facts the delta propagation inferred, and the
        rounds/rule applications it took.  The propagation always runs to
        fixpoint — a truncated update would poison every later answer.
        """
        result = self._engine.extend(self._warm(), facts)
        self._rounds += result.rounds
        self._derived += result.derived_count
        self._applications += result.rule_applications
        self._added_facts += result.added_facts
        self._updates += 1
        self._join_stats.merge(result.join_stats)
        return result

    def add_fact(self, fact: Atom) -> DeltaUpdateResult:
        """Convenience wrapper for a single-fact delta."""
        return self.add_facts((fact,))

    def retract_facts(self, facts: Instance | Iterable[Atom]) -> RetractionResult:
        """Un-assert base facts and unwind their consequences incrementally.

        Runs Backward/Forward maintenance through the same compiled join
        plans as :meth:`add_facts` — see :meth:`DatalogEngine.retract` for
        the algorithm and the resulting :class:`RetractionResult` counters.
        The contract for inputs that cannot be retracted: facts never added
        and facts present only as derivations are *ignored* (reported via
        ``ignored_facts``), never an error — retraction removes assertions,
        and whatever stays entailed by the surviving assertions stays in the
        store.
        """
        result = self._engine.retract(self._warm(), facts)
        self._rounds += result.rounds
        self._applications += result.rule_applications
        self._retracted_facts += result.retracted_facts
        self._retractions += 1
        self._join_stats.merge(result.join_stats)
        return result

    def retract_fact(self, fact: Atom) -> RetractionResult:
        """Convenience wrapper for a single-fact retraction."""
        return self.retract_facts((fact,))

    # ------------------------------------------------------------------
    # query answering
    # ------------------------------------------------------------------
    def resolve_strategy(
        self, query: ConjunctiveQuery, options: Optional[QueryOptions] = None
    ) -> str:
        """The planned strategy for a query: ``"materialized"`` or ``"demand"``.

        ``auto`` resolves to ``demand`` exactly when the session is cold and
        the query carries at least one bound argument; answering a
        materialized-resolved query warms the session, so later ``auto``
        queries in the same batch resolve to ``materialized``.  The plan
        stands even when an ``auto`` demand evaluation then spends its
        budget and cuts over to the materialization (counted in
        :attr:`demand_stats`).
        """
        strategy = options.strategy if options is not None else "auto"
        if strategy == "auto":
            if self.is_cold and query_has_bound_arguments(query):
                return "demand"
            return "materialized"
        return strategy

    def _demand_base(self, query: ConjunctiveQuery) -> FactStore:
        """The store whose base rows a demand evaluation of ``query`` reads.

        That is the session's store, warm or cold.  On a cold session over a
        lazy source, the predicates the evaluation reads are encoded first.
        """
        if self._lazy_source is not None:
            self._load(demand_reads(self._engine.program, query))
        return self._store

    def _evaluate(
        self, query: ConjunctiveQuery, options: Optional[QueryOptions]
    ) -> FrozenSet[Tuple[Term, ...]]:
        """Answer one query by its resolved strategy.

        Under ``auto``, demand evaluation runs with a work budget of
        :attr:`base_fact_count`; when it is spent, the session warms and
        the query is answered from the materialization.
        """
        if self.resolve_strategy(query, options) != "demand":
            return evaluate_query(query, self._warm())
        budgeted = options is None or options.strategy == "auto"
        try:
            result = demand_answer(
                self._engine.program,
                self._demand_base(query),
                query,
                max_work=self.base_fact_count if budgeted else None,
            )
        except BudgetExceeded:
            self._demand_stats.cutovers += 1
            return evaluate_query(query, self._warm())
        stats = self._demand_stats
        stats.queries += 1
        stats.magic_facts += result.report.magic_facts
        stats.rounds += result.report.rounds
        stats.predicates_touched = max(
            stats.predicates_touched, result.report.predicates_touched
        )
        return result.answers

    @property
    def demand_stats(self) -> Dict[str, int]:
        """Cumulative counters for demand-driven answers on this session.

        ``queries`` demand evaluations that answered; ``magic_facts`` and
        ``rounds`` summed over them; ``predicates_touched`` the worst case
        (maximum) demand footprint in original predicates, against
        ``predicates_total``; ``cutovers`` the ``auto`` demand evaluations
        that spent their work budget and gave way to the materialization.
        See :mod:`repro.datalog.magic` for how to read the footprint
        counters.
        """
        return {
            **self._demand_stats.snapshot(),
            "predicates_total": len(self._engine.program.predicates()),
        }

    def answer(
        self,
        query: ConjunctiveQuery,
        *,
        options: Optional[QueryOptions] = None,
    ) -> FrozenSet[Tuple[Term, ...]]:
        """Certain answers of one existential-free conjunctive query.

        Answers are strategy-invariant; ``options`` only chooses how much
        work is done (see :class:`~repro.datalog.query.QueryOptions`).
        """
        return self._evaluate(query, options)

    def answer_many(
        self,
        queries: Sequence[ConjunctiveQuery],
        *,
        options: Optional[QueryOptions] = None,
    ) -> Tuple[FrozenSet[Tuple[Term, ...]], ...]:
        """Batched evaluation: one answer set per query, in input order.

        All materialized-strategy queries run against the same live
        materialization, so a batch pays the (already-amortized) fixpoint
        exactly once.  Duplicate queries within a batch are evaluated once
        and fanned out — the serving layer's micro-batcher leans on this to
        amortize plan probes across concurrent requests asking the same
        thing.  Strategies resolve per query in input order: once one query
        warms the session (a materialized answer or an ``auto`` cutover),
        later ``auto`` queries go materialized.
        """
        evaluated: Dict[ConjunctiveQuery, FrozenSet[Tuple[Term, ...]]] = {}
        for query in queries:
            if query not in evaluated:
                evaluated[query] = self._evaluate(query, options)
        return tuple(evaluated[query] for query in queries)

    def entails(self, fact: Atom) -> bool:
        """Decide ``I, Σ |= F`` for a base fact over the live materialization."""
        if not fact.is_base_fact:
            raise ValueError("entailment is defined for base facts only")
        return fact in self._warm()

    def certain_base_facts(self) -> FrozenSet[Atom]:
        """All base facts of the live materialization."""
        return frozenset(fact for fact in self._warm() if fact.is_base_fact)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> MaterializationResult:
        """An immutable view of the current materialization.

        The store is copied, so later :meth:`add_facts` calls do not leak
        into the snapshot.  The bookkeeping fields report the session's
        cumulative totals (rounds, derived facts, rule applications, join
        counters).
        """
        return MaterializationResult(
            store=self._warm().copy(),
            rounds=self._rounds,
            derived_count=self._derived,
            rule_applications=self._applications,
            join_stats=self.join_stats,
        )

    def __repr__(self) -> str:
        if self._cold:
            return (
                f"ReasoningSession({len(self.program)} rules, cold, "
                f"{self.base_fact_count} pending base facts)"
            )
        return (
            f"ReasoningSession({len(self.program)} rules, {len(self._store)} facts, "
            f"{self._updates} updates, {self._retractions} retractions)"
        )
