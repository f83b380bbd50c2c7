"""Algorithm 1: computing ``Inf(Σ)`` with an Otter-style saturation loop.

The engine maintains a *worked-off* set ``W`` of TGDs/rules already combined
with each other and an *unprocessed* set ``U`` of TGDs/rules still to be
processed.  In every iteration the smallest unprocessed clause is moved to
``W``, the inference rule is applied to it together with premises from ``W``,
and every result is head-normalized and then checked for redundancy: results
contained in ``W ∪ U`` up to redundancy (syntactic tautologies or clauses
forward-subsumed by a retained clause) are dropped; otherwise backward
subsumption removes the retained clauses they subsume and the result joins
``U``.  When ``U`` empties, the Skolem-free Datalog rules of ``W`` are the
rewriting.

Redundancy bookkeeping is fully index-driven: retained clauses live in a
predicate-signature set-trie (:class:`SubsumptionIndex`), forward and
backward subsumption only touch the candidates it yields, and backward
subsumption deletes victims through the index instead of scanning the
retained sets.  Clauses are stored in canonical-variable form (flagged, so
renormalization in the subsumption tests is O(1)).
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Dict, Generic, Iterable, List, Optional, Sequence, Set, Tuple

from ..logic.normal_form import normalize
from ..logic.rules import Rule
from ..logic.tgd import TGD
from ..indexing.feature_index import SubsumptionIndex
from .base import Clause, ClauseT, InferenceRule, RewritingResult, RewritingSettings, SaturationStatistics
from .subsumption import is_syntactic_tautology, subsumes


class SaturationTimeout(Exception):
    """Raised internally when the time budget is exhausted."""


class Saturation(Generic[ClauseT]):
    """Runs Algorithm 1 for a concrete inference rule."""

    def __init__(
        self,
        inference: InferenceRule[ClauseT],
        settings: Optional[RewritingSettings] = None,
    ) -> None:
        self.inference = inference
        self.settings = settings or inference.settings
        self.statistics = SaturationStatistics()
        self._worked_off: Set[ClauseT] = set()
        self._unprocessed: Set[ClauseT] = set()
        self._queue: List[Tuple[int, int, ClauseT]] = []
        self._queue_counter = itertools.count()
        self._subsumption_index: SubsumptionIndex = SubsumptionIndex()
        self._deadline: Optional[float] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, sigma: Sequence[TGD]) -> RewritingResult:
        """Compute the rewriting of the input GTGDs."""
        start = time.monotonic()
        if self.settings.timeout_seconds is not None:
            self._deadline = start + self.settings.timeout_seconds
        self.inference.prepare(tuple(sigma))
        initial = self.inference.initial_clauses(tuple(sigma))
        self.statistics.input_size = len(initial)
        completed = True
        try:
            for clause in initial:
                self._admit(clause)
            self._main_loop()
        except SaturationTimeout:
            completed = False
            self.statistics.timed_out = True
        if self.inference.truncated:
            completed = False
        self.statistics.elapsed_seconds = time.monotonic() - start
        self.statistics.retained = len(self._worked_off)
        datalog = self.inference.extract_datalog(tuple(self._worked_off))
        return RewritingResult(
            algorithm=self.inference.name,
            datalog_rules=datalog,
            statistics=self.statistics,
            worked_off_size=len(self._worked_off),
            completed=completed,
        )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _main_loop(self) -> None:
        while self._queue:
            self._check_deadline()
            clause = self._pop_unprocessed()
            if clause is None:
                continue
            self._unprocessed.discard(clause)
            self._worked_off.add(clause)
            self.inference.register(clause)
            self.statistics.processed += 1
            derived = self.inference.infer(clause, self._worked_off)
            normalized = self.inference.normalize_results(derived)
            for result in normalized:
                self._check_deadline()
                self.statistics.derived += 1
                self._admit(result)
            if (
                self.settings.max_clauses is not None
                and len(self._worked_off) + len(self._unprocessed)
                > self.settings.max_clauses
            ):
                raise SaturationTimeout("clause limit exceeded")

    def _pop_unprocessed(self) -> Optional[ClauseT]:
        while self._queue:
            _, _, clause = heapq.heappop(self._queue)
            if clause in self._unprocessed:
                return clause
        return None

    def _check_deadline(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise SaturationTimeout()

    # ------------------------------------------------------------------
    # redundancy management
    # ------------------------------------------------------------------
    def _normal_form(self, clause: Clause) -> Clause:
        # normalize memoizes on the interned clause itself (_canonical_form),
        # so no per-saturation cache is needed
        return normalize(clause)

    def _admit(self, clause: ClauseT) -> None:
        """Line 7–10 of Algorithm 1: redundancy checks, backward subsumption, enqueue."""
        # Store every clause in canonical-variable form.  Besides making
        # duplicate elimination cheap, this guarantees that the variable names
        # of retained clauses never clash with the fresh suffixes used when
        # inference rules rename premises apart.
        clause = self._normal_form(clause)
        if is_syntactic_tautology(clause):
            self.statistics.discarded_tautology += 1
            return
        # An exact duplicate of a retained clause is redundant under either
        # setting; canonical forms make this a set lookup.  Duplicates are
        # counted separately from subsumption discards so the subsumption hit
        # rate measures the index, not trivial dedup.
        if clause in self._worked_off or clause in self._unprocessed:
            self.statistics.discarded_duplicate += 1
            return
        if self.settings.use_subsumption:
            if self._is_forward_subsumed(clause):
                self.statistics.discarded_forward += 1
                return
            self._backward_subsume(clause)
        # Without redundancy elimination, termination is still guaranteed by
        # the duplicate check above (Section 6: "our normalization of
        # variables still guarantees termination").
        self._unprocessed.add(clause)
        self._subsumption_index.add(clause)
        heapq.heappush(
            self._queue, (clause.size, next(self._queue_counter), clause)
        )

    def _is_forward_subsumed(self, clause: Clause) -> bool:
        self.statistics.forward_checks += 1
        exact = self.settings.exact_subsumption
        for candidate in self._subsumption_index.subsuming_candidates(clause):
            if candidate not in self._worked_off and candidate not in self._unprocessed:
                continue
            self.statistics.forward_candidates += 1
            if subsumes(candidate, clause, exact=exact):
                return True
        return False

    def _backward_subsume(self, clause: Clause) -> None:
        victims: List[Clause] = []
        exact = self.settings.exact_subsumption
        for candidate in self._subsumption_index.subsumed_candidates(clause):
            if candidate == clause:
                continue
            if candidate not in self._worked_off and candidate not in self._unprocessed:
                continue
            self.statistics.backward_candidates += 1
            if subsumes(clause, candidate, exact=exact):
                victims.append(candidate)
        for victim in victims:
            self.statistics.removed_backward += 1
            self._subsumption_index.remove(victim)
            if victim in self._worked_off:
                self._worked_off.discard(victim)
                self.inference.unregister(victim)
            self._unprocessed.discard(victim)


def saturate(
    inference: InferenceRule[ClauseT],
    sigma: Sequence[TGD],
    settings: Optional[RewritingSettings] = None,
) -> RewritingResult:
    """Convenience wrapper: run Algorithm 1 for the given inference rule."""
    return Saturation(inference, settings).run(sigma)
