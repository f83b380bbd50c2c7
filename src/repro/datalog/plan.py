"""Compiled set-at-a-time query plans for semi-naive Datalog evaluation.

This module replaces tuple-at-a-time rule application (enumerate one
substitution, extend it one atom at a time, allocate a dict per extension)
with *compiled hash-join pipelines* evaluated over batched binding sets — the
classic set-oriented evaluation used by production Datalog engines such as
the RDFox system the paper relies on for its end-to-end experiment.

Plan representation
-------------------

A :class:`RulePlan` is compiled once per rule and reused across every
semi-naive round and across :meth:`ReasoningSession.add_facts` delta
propagations.  For each *pivot* (the body position restricted to the delta in
the semi-naive rewriting; ``None`` for the initial naive round and for query
evaluation) the plan holds one :class:`PlanVariant` — an ordered pipeline of
:class:`JoinStep`\\ s:

* **Atom order** is chosen at compile time by a cheap selectivity heuristic:
  the pivot (whose facts come from the small delta) runs first, then atoms
  are greedily picked to maximize ``(#bound join variables, #constant
  arguments, -#new variables)``, so every later step probes the narrowest
  available hash key.
* **Step 0** is a *scan*: the pivot atom reads the per-round delta, a
  non-pivot leading atom reads the store (narrowed through the multi-column
  key index when the atom carries constants).
* **Every later step is a hash join**: ``key_positions`` are the argument
  positions whose value is known when the step runs (constants plus
  already-bound variables); the store serves a hash index over exactly those
  columns (:meth:`FactStore.key_index`) and the step probes it once per
  binding row.  ``checks`` verify repeated *new* variables inside the atom;
  bound variables and constants need no re-checking because they are part of
  the probe key.  A step keyed on every argument probes the relation itself,
  since each key is a whole row, and builds no index.

A retraction's backward check (:meth:`RulePlan.derivations`) runs one more
variant per rule, compiled and cached the same way: the *head-bound*
pipeline, which starts from a batch binding the head's variables and orders
the body bound-first from there.

Binding sets flow through the pipeline as *columnar batches*
(:class:`BindingBatch`): a dict mapping each bound variable to a column of
values — not a per-tuple substitution dict — so extending ``n`` rows by a
join allocates a handful of lists instead of ``n`` dictionaries.

The columns hold **term IDs, not terms**: the store is ID-encoded
(:mod:`repro.datalog.store`), so deltas arrive as int-tuple rows, probe
keys are ints (or tuples of ints), and the pipeline never touches a term
object.  Constants in a step's key are resolved against the store's
:class:`~repro.datalog.store.TermTable` once per execution — a constant
the table has never seen cannot match any stored row, so the step
short-circuits to an empty batch.  Decoding back to interned terms happens
only at the boundaries: :meth:`RulePlan.project_head` (term-space callers)
and the query answer projection; the engine commits
:meth:`RulePlan.project_rows` output straight back into row space.

Reading the join-plan counters
------------------------------

:class:`JoinPlanStats` counts the pipeline work; it is a block of the
shared counters (:class:`repro.obs.Counters`).  Every execution takes the
block to count into: each materialization, extension and retraction counts
into its own block and returns its snapshot as ``join_stats``, a session
merges those snapshots (``ReasoningSession.join_stats``), and a query
evaluation counts into a fresh block that it drops.  The repository
benchmark (``perfbench/``) reports ``probes`` and ``probe_hits`` as its
``datalog.engine.join_probes`` and ``join_hit_rate`` per-layer metrics:

* ``batches`` — executed pipeline steps (one columnar batch per step);
* ``probes`` / ``probe_hits`` — hash-index (or whole-row) lookups performed
  and the facts they returned; ``hit_rate`` is the average number of facts returned per
  probe (values below 1 mean many probes miss entirely — the join filters
  hard; large values mean wide fan-out);
* ``rows_emitted`` — complete body matches produced by final steps, i.e.
  rule applications evaluated set-at-a-time;
* ``empty_delta_short_circuits`` / ``empty_relation_short_circuits`` —
  variants skipped without touching the store because the pivot's delta or
  some body relation was empty;
* ``deletion_batches`` / ``deletion_rows`` — pipelines executed pivoted on
  a *deleted* delta by a retraction's deletion rounds
  (:meth:`DatalogEngine.retract`) and the candidate-deletion rows they
  emitted.

Two engine methods describe the plans themselves:
:meth:`DatalogEngine.compiled_plan_count` counts the distinct
``(rule, pivot)`` variants compiled over the engine's lifetime (flat across
rounds and updates, because plans are cached and reused; head-bound
variants are not counted), and
:meth:`DatalogEngine.plan_shapes` lists per-rule pipeline summaries such as
``"Reach(?x,?z) <- scan Reach | Edge[k1]"`` (``[kN]`` = hash join over an
``N``-column key).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..logic.atoms import Atom, Predicate
from ..logic.rules import Rule
from ..logic.terms import Variable
from ..obs import Counters, rate
from .store import FactStore, Row


class JoinPlanStats(Counters):
    """Counters for plan execution (see the module docstring)."""

    __slots__ = (
        "batches",
        "probes",
        "probe_hits",
        "rows_emitted",
        "empty_delta_short_circuits",
        "empty_relation_short_circuits",
        "deletion_batches",
        "deletion_rows",
    )
    DERIVED = {"hit_rate": lambda stats: rate(stats.probe_hits, stats.probes)}


class BindingBatch:
    """A columnar batch of binding rows: one column (list) per bound variable.

    All columns have length :attr:`size`.  Row ``r`` of the batch is the
    binding ``{var: columns[var][r]}`` — but rows are never materialized as
    dicts; steps operate directly on the columns.  Column values are term
    IDs of the executing store's :class:`~repro.datalog.store.TermTable`,
    never term objects; decode at the projection boundary.
    """

    __slots__ = ("columns", "size")

    def __init__(self, columns: Dict[Variable, List[int]], size: int) -> None:
        self.columns = columns
        self.size = size

    @classmethod
    def empty(cls) -> "BindingBatch":
        return cls({}, 0)

    @classmethod
    def unit(cls) -> "BindingBatch":
        """A single all-empty binding row (the seed of every pipeline)."""
        return cls({}, 1)


class JoinStep:
    """One pipeline step: scan (first step) or hash-join (later steps).

    ``key_positions``/``key_sources`` describe the probe key: for each keyed
    argument position, the value is either a constant known at compile time
    (``("const", term)``) or read from the named batch column
    (``("var", variable)``).  ``checks`` are ``(position, first_position)``
    pairs enforcing equality of repeated new variables within the atom.
    ``outputs`` are ``(variable, position)`` pairs extending the batch schema.
    """

    __slots__ = ("atom", "key_positions", "key_sources", "checks", "outputs")

    def __init__(
        self,
        atom: Atom,
        key_positions: Tuple[int, ...],
        key_sources: Tuple[Tuple[str, object], ...],
        checks: Tuple[Tuple[int, int], ...],
        outputs: Tuple[Tuple[Variable, int], ...],
    ) -> None:
        self.atom = atom
        self.key_positions = key_positions
        self.key_sources = key_sources
        self.checks = checks
        self.outputs = outputs

    def describe(self) -> str:
        if self.key_positions:
            return f"{self.atom.predicate.name}[k{len(self.key_positions)}]"
        return f"{self.atom.predicate.name}[scan]"


def _compile_step(atom: Atom, bound: Set[Variable]) -> JoinStep:
    """Compile one body atom given the variables bound by earlier steps."""
    key_positions: List[int] = []
    key_sources: List[Tuple[str, object]] = []
    checks: List[Tuple[int, int]] = []
    outputs: List[Tuple[Variable, int]] = []
    first_new: Dict[Variable, int] = {}
    for position, arg in enumerate(atom.args):
        if isinstance(arg, Variable):
            if arg in bound:
                # every occurrence of a bound variable joins via the key;
                # repeats just widen the key, which only helps selectivity
                key_positions.append(position)
                key_sources.append(("var", arg))
            elif arg in first_new:
                checks.append((position, first_new[arg]))
            else:
                first_new[arg] = position
                outputs.append((arg, position))
        else:
            key_positions.append(position)
            key_sources.append(("const", arg))
    return JoinStep(
        atom,
        tuple(key_positions),
        tuple(key_sources),
        tuple(checks),
        tuple(outputs),
    )


def _order_body(
    body: Sequence[Atom],
    pivot: Optional[int],
    prebound: Iterable[Variable] = (),
) -> Tuple[int, ...]:
    """Greedy selectivity ordering of the body atoms (compile-time, no stats).

    The pivot (delta-restricted atom) always runs first.  Each following slot
    takes the atom with the most already-bound join variables, breaking ties
    by more constant arguments, then by fewer new variables, then by body
    position (for determinism).  ``prebound`` variables count as bound from
    the start (the head's variables, for a backward check).
    """
    remaining = list(range(len(body)))
    order: List[int] = []
    bound: Set[Variable] = set(prebound)

    def const_count(index: int) -> int:
        return sum(1 for arg in body[index].args if not isinstance(arg, Variable))

    if pivot is not None:
        order.append(pivot)
        remaining.remove(pivot)
        bound.update(body[pivot].variable_set())
    while remaining:
        def score(index: int) -> Tuple[int, int, int, int]:
            atom_vars = body[index].variable_set()
            return (
                len(atom_vars & bound),
                const_count(index),
                -len(atom_vars - bound),
                -index,
            )

        best = max(remaining, key=score)
        order.append(best)
        remaining.remove(best)
        bound.update(body[best].variable_set())
    return tuple(order)


class PlanVariant:
    """An ordered pipeline of join steps for one ``(body, pivot)`` pair.

    With ``prebound`` variables the pipeline starts from a caller-supplied
    seed batch that binds them, so their atoms are probed by those values
    rather than scanned: the head-bound variant of a backward check.
    """

    __slots__ = ("body", "pivot", "order", "steps")

    def __init__(
        self,
        body: Tuple[Atom, ...],
        pivot: Optional[int],
        prebound: Iterable[Variable] = (),
    ) -> None:
        self.body = body
        self.pivot = pivot
        bound: Set[Variable] = set(prebound)
        self.order = _order_body(body, pivot, bound)
        steps: List[JoinStep] = []
        for index in self.order:
            steps.append(_compile_step(body[index], bound))
            bound.update(body[index].variable_set())
        self.steps = tuple(steps)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        store: FactStore,
        delta_by_predicate: Optional[Dict[Predicate, List[Row]]],
        stats: JoinPlanStats,
        seed: Optional[BindingBatch] = None,
    ) -> BindingBatch:
        """Run the pipeline; returns the batch of complete body matches.

        ``delta_by_predicate`` holds ID-encoded rows of the executing store
        (the engine's commit loop produces exactly this), never atoms.
        ``seed`` binds a head-bound variant's ``prebound`` variables; the
        other variants start from the unit batch.
        """
        # empty-delta / empty-relation short-circuit: any step with no
        # candidate facts makes the whole variant vacuous
        for position, step in zip(self.order, self.steps):
            if self.pivot is not None and position == self.pivot:
                bucket = (
                    delta_by_predicate.get(step.atom.predicate)
                    if delta_by_predicate
                    else None
                )
                if not bucket:
                    stats.empty_delta_short_circuits += 1
                    return BindingBatch.empty()
            elif not store.count(step.atom.predicate):
                stats.empty_relation_short_circuits += 1
                return BindingBatch.empty()
        batch = BindingBatch.unit() if seed is None else seed
        for position, step in zip(self.order, self.steps):
            if self.pivot is not None and position == self.pivot:
                assert delta_by_predicate is not None
                delta_rows = delta_by_predicate.get(step.atom.predicate, ())
                batch = self._join(step, store, batch, stats, delta_rows)
            else:
                batch = self._join(step, store, batch, stats, None)
            if not batch.size:
                return batch
        stats.rows_emitted += batch.size
        return batch

    def execute_deletion(
        self,
        store: FactStore,
        deleted_by_predicate: Optional[Dict[Predicate, List[Row]]],
        stats: JoinPlanStats,
    ) -> BindingBatch:
        """Run the pipeline pivoted on a *deleted* delta (a retraction round).

        The join machinery is byte-for-byte the one :meth:`execute` uses for
        semi-naive addition — only the delta's meaning flips: rows emitted
        here are candidate deletions (derivations that used at least one
        deleted fact), not new derivations.  The deleted facts must still be
        present in the store when this runs; the engine commits removals
        only after every pivot of the round has executed, so joins pairing
        two same-round deletions are still found.
        """
        batch = self.execute(store, deleted_by_predicate, stats)
        stats.deletion_batches += 1
        stats.deletion_rows += batch.size
        return batch

    @staticmethod
    def _join(
        step: JoinStep,
        store: FactStore,
        batch: BindingBatch,
        stats: JoinPlanStats,
        delta_rows: Optional[Iterable[Row]],
    ) -> BindingBatch:
        """Extend the batch with one atom: delta scan or indexed hash join.

        Everything here is in row space — delta rows, index buckets, and
        batch columns all hold term IDs of the executing store.
        """
        stats.batches += 1
        columns = batch.columns
        checks = step.checks
        outputs = step.outputs
        lookup = store.terms.lookup
        if delta_rows is not None:
            # pivot scan: the delta is small and unindexed; filter it row by
            # row (constants and repeated variables) and cross it with the
            # batch — the pivot runs first, so the batch is the unit row.
            # Key sources on a leading scan are always constants; a constant
            # the term table has never seen matches nothing.
            sources: Optional[List[Tuple[int, int]]] = []
            for pos, (_, value) in zip(step.key_positions, step.key_sources):
                encoded = lookup(value)
                if encoded is None:
                    sources = None
                    break
                sources.append((pos, encoded))
            matched: List[Row] = []
            if sources is not None:
                for fact_row in delta_rows:
                    if any(fact_row[pos] != value for pos, value in sources):
                        continue
                    if any(fact_row[pos] != fact_row[first] for pos, first in checks):
                        continue
                    matched.append(fact_row)
            stats.probes += max(1, batch.size)
            stats.probe_hits += len(matched)
            if not matched:
                return BindingBatch.empty()
            keep = [row for row in range(batch.size) for _ in matched]
            new_columns = {
                var: [fact_row[pos] for _ in range(batch.size) for fact_row in matched]
                for var, pos in outputs
            }
            result = {
                var: [column[row] for row in keep] for var, column in columns.items()
            }
            result.update(new_columns)
            return BindingBatch(result, len(keep))
        if not step.key_positions:
            # no bound variables or constants: cross product with the relation
            rows = [
                fact_row
                for fact_row in store.relation_rows(step.atom.predicate)
                if not any(
                    fact_row[pos] != fact_row[first] for pos, first in checks
                )
            ]
            stats.probes += batch.size
            stats.probe_hits += len(rows) * batch.size
            if not rows:
                return BindingBatch.empty()
            keep = [row for row in range(batch.size) for _ in rows]
            result = {
                var: [column[row] for row in keep] for var, column in columns.items()
            }
            for var, pos in outputs:
                column = [fact_row[pos] for fact_row in rows]
                result[var] = column * batch.size if batch.size > 1 else column
            return BindingBatch(result, len(keep))
        size = batch.size
        probe_columns: List[Sequence[int]] = []
        for kind, value in step.key_sources:
            if kind == "const":
                encoded = lookup(value)
                if encoded is None:
                    # no stored row mentions this constant: nothing can match
                    stats.probes += size
                    return BindingBatch.empty()
                probe_columns.append((encoded,) * size)
            else:
                probe_columns.append(columns[value])
        keep: List[int] = []
        new_values: List[List[int]] = [[] for _ in outputs]
        if len(step.key_positions) == len(step.atom.args):
            # every argument is keyed, so each key is a whole row: test
            # membership instead of building and maintaining a full-key index
            relation = store.relation_rows(step.atom.predicate)
            keep = [
                row for row, key in enumerate(zip(*probe_columns)) if key in relation
            ]
            hits = len(keep)
        else:
            index = store.key_index(step.atom.predicate, step.key_positions)
            output_positions = tuple(pos for _, pos in outputs)
            hits = 0
            if len(step.key_sources) == 1:
                keys: Iterable[object] = probe_columns[0]
            else:
                keys = zip(*probe_columns)
            for row, key in enumerate(keys):
                bucket = index.get(key)
                if not bucket:
                    continue
                for fact_row in bucket:
                    if checks and any(
                        fact_row[pos] != fact_row[first] for pos, first in checks
                    ):
                        continue
                    keep.append(row)
                    for slot, pos in enumerate(output_positions):
                        new_values[slot].append(fact_row[pos])
                    hits += 1
        stats.probes += size
        stats.probe_hits += hits
        if not keep:
            return BindingBatch.empty()
        result = {var: [column[row] for row in keep] for var, column in columns.items()}
        for (var, _), values in zip(outputs, new_values):
            result[var] = values
        return BindingBatch(result, len(keep))

    def describe(self) -> str:
        if not self.steps:
            return "(empty body)"
        first, rest = self.steps[0], self.steps[1:]
        parts = [f"scan {first.atom.predicate.name}"]
        parts.extend(step.describe() for step in rest)
        return " | ".join(parts)


def _arg_sources(atom: Atom) -> Tuple[Tuple[str, object], ...]:
    """Where each argument of an atom comes from: a batch column or a constant."""
    return tuple(
        ("var", arg) if isinstance(arg, Variable) else ("const", arg)
        for arg in atom.args
    )


class RulePlan:
    """All compiled variants of one rule, plus its head projection.

    Variants are compiled lazily per pivot position and cached for the
    engine's lifetime, so a rule evaluated over thousands of rounds compiles
    each of its pivots exactly once.  The head-bound variant that
    :meth:`derivations` runs is compiled and cached the same way, in its
    own slot.
    """

    __slots__ = ("rule", "_variants", "_head_bound", "_head_sources", "_body_sources")

    def __init__(self, rule: Rule) -> None:
        self.rule = rule
        self._variants: Dict[Optional[int], PlanVariant] = {}
        self._head_bound: Optional[PlanVariant] = None
        self._head_sources = _arg_sources(rule.head)
        self._body_sources = tuple(
            (atom.predicate, _arg_sources(atom)) for atom in rule.body
        )

    @property
    def compiled_variant_count(self) -> int:
        """Pivot variants compiled so far (the head-bound one is not counted)."""
        return len(self._variants)

    def variant(self, pivot: Optional[int]) -> PlanVariant:
        variant = self._variants.get(pivot)
        if variant is None:
            variant = PlanVariant(self.rule.body, pivot)
            self._variants[pivot] = variant
        return variant

    def head_bound_variant(self) -> PlanVariant:
        """The pipeline with the head's variables bound (backward checks)."""
        variant = self._head_bound
        if variant is None:
            variant = PlanVariant(self.rule.body, None, self.rule.head.variable_set())
            self._head_bound = variant
        return variant

    def derivations(
        self, store: FactStore, row: Row, stats: JoinPlanStats
    ) -> List[Tuple[Tuple[Predicate, Row], ...]]:
        """The body facts of every rule instance whose head is ``row``.

        Backward chaining on the compiled pipeline: the head row binds the
        head's variables (a constant or repeated variable that disagrees
        with the row rules the instance out), and the head-bound variant
        probes the body atoms bound-first from there.  Each instance is the
        tuple of its ``(predicate, row)`` body facts, all in the store.
        """
        lookup = store.terms.lookup
        columns: Dict[Variable, List[int]] = {}
        for (kind, value), term_id in zip(self._head_sources, row):
            if kind == "const":
                if lookup(value) != term_id:
                    return []
            elif value not in columns:
                columns[value] = [term_id]
            elif columns[value][0] != term_id:
                return []
        batch = self.head_bound_variant().execute(
            store, None, stats, BindingBatch(columns, 1)
        )
        size = batch.size
        if not size:
            return []
        atom_facts = []
        for predicate, sources in self._body_sources:
            arg_columns = [
                batch.columns[value] if kind == "var" else (lookup(value),) * size
                for kind, value in sources
            ]
            rows = zip(*arg_columns) if sources else [()] * size
            atom_facts.append([(predicate, args) for args in rows])
        return list(zip(*atom_facts))

    def project_rows(self, batch: BindingBatch, store: FactStore) -> Iterator[Row]:
        """Instantiate the head as ID-encoded rows for every match row.

        This is the engine's path: the rows feed straight back into the
        store's row layer, so no term object is touched.  Head constants
        are encoded against the store's table (appending is fine — the
        head instance is about to be stored).  Rows binding the head
        identically yield duplicates; the engine deduplicates on insertion
        exactly as the tuple-at-a-time loop did.
        """
        if not batch.size:
            return
        if not self._head_sources:
            yield ()
            return
        encode = store.terms.encode
        arg_columns = [
            batch.columns[value] if kind == "var" else (encode(value),) * batch.size
            for kind, value in self._head_sources
        ]
        yield from zip(*arg_columns)

    def project_head(self, batch: BindingBatch, store: FactStore) -> Iterator[Atom]:
        """Instantiate the head atom for every row of a match batch (decoded).

        The decode boundary for term-space callers (tests, reference
        checks); the engine itself stays in row space via
        :meth:`project_rows`.
        """
        predicate = self.rule.head.predicate
        decode = store.terms.decode_args
        for row in self.project_rows(batch, store):
            yield Atom(predicate, decode(row))

    def shape(self) -> str:
        """Compact human-readable pipeline summary (see ``plan_shapes``)."""
        variant = self._variants.get(None) or next(iter(self._variants.values()), None)
        if variant is None:
            variant = self.variant(None)
        return f"{self.rule.head.predicate.name}/{self.rule.head.predicate.arity} <- {variant.describe()}"


# ----------------------------------------------------------------------
# query-plan reuse (top-level conjunctive query answering)
# ----------------------------------------------------------------------
def body_supports_plan(body: Tuple[Atom, ...]) -> bool:
    """Whether the hash-join pipeline computes this body exactly.

    Plans bind whole argument terms: every argument must be a variable or a
    ground term.  A non-ground function term such as ``f(?x)`` needs proper
    unification into the stored terms, which the probe-by-equality key index
    cannot express — those (rare, query-only) bodies take the
    tuple-at-a-time matching fallback instead.  Datalog *rule* bodies are
    validated function-free, so the engine itself never hits this.
    """
    for atom in body:
        for arg in atom.args:
            if not isinstance(arg, Variable) and not arg.is_ground:
                return False
    return True


_BODY_PLAN_CACHE: Dict[Tuple[Atom, ...], PlanVariant] = {}
_BODY_PLAN_CACHE_LIMIT = 512


def compiled_body_plan(body: Tuple[Atom, ...]) -> PlanVariant:
    """A (cached) no-pivot pipeline for a conjunctive query body.

    Query answering reuses exactly the rule-body join machinery; atoms are
    interned, so the body tuple is a cheap cache key and repeated queries
    skip compilation.
    """
    plan = _BODY_PLAN_CACHE.get(body)
    if plan is None:
        while len(_BODY_PLAN_CACHE) >= _BODY_PLAN_CACHE_LIMIT:
            _BODY_PLAN_CACHE.pop(next(iter(_BODY_PLAN_CACHE)))
        plan = PlanVariant(tuple(body), None)
        _BODY_PLAN_CACHE[body] = plan
    return plan
