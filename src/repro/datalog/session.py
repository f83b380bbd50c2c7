"""Long-lived reasoning sessions with incremental materialization.

The paper's deployment mode is "compile Σ once, serve many instances and
queries".  A :class:`ReasoningSession` is the serving half of that story: it
keeps the materialized :class:`~repro.datalog.store.FactStore` alive across
calls, so

* ``add_facts(delta)`` propagates a batch of new base facts by *true
  semi-naive delta propagation* — the fixpoint loop is seeded with the new
  facts (:meth:`DatalogEngine.extend`) instead of re-running the whole
  materialization, doing work proportional to the consequences of the delta;
* ``retract_facts(delta)`` un-asserts base facts by DRed (delete/re-derive,
  :meth:`DatalogEngine.retract`): an over-deletion pass pivots the same
  compiled join plans on the deleted delta, then a re-derivation pass
  re-proves survivors — sessions shrink as cheaply as they grow;
* ``answer(query)`` / ``answer_many(queries)`` evaluate existential-free
  conjunctive queries against the live materialization with no per-call
  setup — or, via :class:`~repro.datalog.query.QueryOptions`, goal-directedly
  through the magic-sets transformation (:mod:`repro.datalog.magic`); and
* ``snapshot()`` returns an immutable :class:`MaterializationResult` over a
  copy of the store, decoupled from later updates.

A session constructed with ``defer_materialization=True`` starts *cold*: it
holds its base facts but does not materialize until something needs the full
fixpoint (a materialized answer, a mutation, a snapshot).  Demand-driven
answers on a cold session never warm it, which is what makes cold
point-query latency cheap — the ``auto`` strategy exists exactly for this.

Sessions are obtained from :meth:`repro.api.KnowledgeBase.session` (which
supplies the compiled rewriting) or constructed directly from any Datalog
program.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..logic.atoms import Atom
from ..logic.instance import Instance
from ..logic.rules import Rule
from ..logic.terms import Term
from .engine import (
    DatalogEngine,
    DeltaUpdateResult,
    MaterializationResult,
    RetractionResult,
    compiled_engine,
)
from .store import FactStore
from .magic import demand_answer, query_has_bound_arguments
from .program import DatalogProgram
from .plan import JoinPlanStats
from .query import ConjunctiveQuery, QueryOptions, evaluate_query


def _is_lazy_fact_source(instance: object) -> bool:
    """Whether the initial instance loads facts per predicate on demand.

    Duck-typed on the :class:`repro.kb.format.FactSegments` surface
    (``facts_for`` + ``all_facts``) so the session layer stays independent
    of the persistence layer.
    """
    return hasattr(instance, "facts_for") and hasattr(instance, "all_facts")


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
        self._store: Optional[FactStore] = None
        # a *lazy* fact source (e.g. repro.kb.format.FactSegments) is kept
        # as-is instead of being flattened: demand answers on a cold session
        # then pull only the predicates their magic program demands, and the
        # remaining segments stay undecoded until the session warms
        self._lazy_source = instance if _is_lazy_fact_source(instance) else None
        self._pending: Tuple[Atom, ...] = (
            () if self._lazy_source is not None else tuple(instance)
        )
        self._rounds = 0
        self._derived = 0
        self._applications = 0
        self._added_facts = 0
        self._retracted_facts = 0
        self._updates = 0
        self._retractions = 0
        self._join_stats: Dict[str, int] = {}
        self._mutation_listeners: List[Callable[["ReasoningSession", str], None]] = []
        self._demand_queries = 0
        self._demand_magic_facts = 0
        self._demand_rounds = 0
        self._demand_predicates_touched = 0
        if not defer_materialization:
            self._warm()

    def _warm(self) -> FactStore:
        """The live store, computing the initial materialization on first use."""
        store = self._store
        if store is None:
            if self._lazy_source is not None:
                seed: Iterable[Atom] = self._lazy_source.all_facts()
            else:
                seed = self._pending
            initial = self._engine.materialize(seed)
            store = self._store = initial.store
            self._pending = ()
            self._lazy_source = None
            self._rounds += initial.rounds
            self._derived += initial.derived_count
            self._applications += initial.rule_applications
            # counted directly from the store's base bookkeeping, not by
            # subtracting derived_count from the store size: the subtraction
            # miscounts duplicated inputs and goes stale once retraction
            # shrinks the store
            self._added_facts += initial.store.base_count
            JoinPlanStats.merge_snapshot(self._join_stats, initial.join_stats)
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
        (mutations, snapshots, materialized answers, the store itself) warms
        them permanently.
        """
        return self._store is None

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
        if self._store is None:
            if self._lazy_source is not None:
                # segments are deduplicated on save, so the declared total
                # is exact and costs no decoding
                return len(self._lazy_source)
            return len(set(self._pending))
        return self._store.base_count

    @property
    def generation(self) -> int:
        """Monotone mutation counter: bumps on every add/retract call.

        Two reads of the session with the same generation are guaranteed to
        see the same materialization, which is what answer caches key on —
        see :class:`repro.serve.cache.AnswerCache`.
        """
        return self._updates + self._retractions

    def add_mutation_listener(
        self, listener: Callable[["ReasoningSession", str], None]
    ) -> None:
        """Register ``listener(session, kind)`` to fire after every mutation.

        ``kind`` is ``"add"`` or ``"retract"``.  Listeners run after the
        store has reached the post-mutation fixpoint (so reading answers
        from inside a listener is safe) and before the mutating call
        returns.  The serving layer uses this as its cache-invalidation
        hook (:meth:`repro.serve.cache.AnswerCache.watch_session`).
        """
        self._mutation_listeners.append(listener)

    def _notify_mutation(self, kind: str) -> None:
        for listener in self._mutation_listeners:
            listener(self, kind)

    @property
    def join_stats(self) -> dict:
        """Cumulative join-plan counters over the session's lifetime.

        Sums the per-call snapshots of the initial materialization and every
        delta propagation (``batches``, ``probes``, ``probe_hits``,
        ``rows_emitted``, and the short-circuit counts), with ``hit_rate``
        recomputed over the totals.
        """
        return JoinPlanStats.with_hit_rate(dict(self._join_stats))

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
        JoinPlanStats.merge_snapshot(self._join_stats, result.join_stats)
        self._notify_mutation("add")
        return result

    def add_fact(self, fact: Atom) -> DeltaUpdateResult:
        """Convenience wrapper for a single-fact delta."""
        return self.add_facts((fact,))

    def retract_facts(self, facts: Instance | Iterable[Atom]) -> RetractionResult:
        """Un-assert base facts and unwind their consequences incrementally.

        Runs DRed (delete/re-derive) through the same compiled join plans as
        :meth:`add_facts` — see :meth:`DatalogEngine.retract` for the passes
        and the resulting :class:`RetractionResult` counters.  The contract
        for inputs that cannot be retracted: facts never added and facts
        present only as derivations are *ignored* (reported via
        ``ignored_facts``), never an error — retraction removes assertions,
        and whatever stays entailed by the surviving assertions stays in the
        store.
        """
        result = self._engine.retract(self._warm(), facts)
        self._rounds += result.rounds
        self._applications += result.rule_applications
        self._retracted_facts += result.retracted_facts
        self._retractions += 1
        JoinPlanStats.merge_snapshot(self._join_stats, result.join_stats)
        self._notify_mutation("retract")
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
        """The effective strategy for a query: ``"materialized"`` or ``"demand"``.

        ``auto`` resolves to ``demand`` exactly when the session is cold and
        the query carries at least one bound argument; answering a
        materialized-resolved query warms the session, so later ``auto``
        queries in the same batch resolve to ``materialized``.
        """
        strategy = options.strategy if options is not None else "auto"
        if strategy == "auto":
            if self.is_cold and query_has_bound_arguments(query):
                return "demand"
            return "materialized"
        return strategy

    def _current_base_facts(self) -> "Iterable[Atom]":
        """The currently-asserted base facts, without warming a cold session.

        On a cold session over a lazy source this returns the source itself,
        so the demand path (:func:`repro.datalog.magic.demand_answer`) can
        restrict itself to the predicates its magic program demands.
        """
        if self._store is None:
            if self._lazy_source is not None:
                return self._lazy_source
            return self._pending
        return tuple(self._store.base_facts())

    def _answer_demand(self, query: ConjunctiveQuery) -> FrozenSet[Tuple[Term, ...]]:
        result = demand_answer(
            self._engine.program, self._current_base_facts(), query
        )
        self._demand_queries += 1
        self._demand_magic_facts += result.report.magic_facts
        self._demand_rounds += result.report.rounds
        self._demand_predicates_touched = max(
            self._demand_predicates_touched, result.report.predicates_touched
        )
        return result.answers

    @property
    def demand_stats(self) -> Dict[str, int]:
        """Cumulative counters for demand-driven answers on this session.

        ``queries`` demand evaluations served; ``magic_facts`` and ``rounds``
        summed over them; ``predicates_touched`` the worst case (maximum)
        demand footprint in original predicates, against
        ``predicates_total``.  See :mod:`repro.datalog.magic` for how to
        read the footprint counters.
        """
        return {
            "queries": self._demand_queries,
            "magic_facts": self._demand_magic_facts,
            "rounds": self._demand_rounds,
            "predicates_touched": self._demand_predicates_touched,
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
        if self.resolve_strategy(query, options) == "demand":
            return self._answer_demand(query)
        return evaluate_query(query, self._warm())

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
        warms the session, later ``auto`` queries go materialized.
        """
        evaluated: Dict[ConjunctiveQuery, FrozenSet[Tuple[Term, ...]]] = {}
        for query in queries:
            if query not in evaluated:
                if self.resolve_strategy(query, options) == "demand":
                    evaluated[query] = self._answer_demand(query)
                else:
                    evaluated[query] = evaluate_query(query, self._warm())
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
        cumulative totals (rounds, derived facts, rule applications).
        """
        return MaterializationResult(
            store=self._warm().copy(),
            rounds=self._rounds,
            derived_count=self._derived,
            rule_applications=self._applications,
        )

    def __repr__(self) -> str:
        if self._store is None:
            pending = (
                len(self._lazy_source)
                if self._lazy_source is not None
                else len(self._pending)
            )
            return (
                f"ReasoningSession({len(self.program)} rules, cold, "
                f"{pending} pending base facts)"
            )
        return (
            f"ReasoningSession({len(self.program)} rules, {len(self._store)} facts, "
            f"{self._updates} updates, {self._retractions} retractions)"
        )
