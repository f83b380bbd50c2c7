"""Shared infrastructure for the rewriting algorithms (Section 5).

Every algorithm (ExbDR, SkDR, HypDR, FullDR) is an *inference rule* plugged
into the same saturation engine (Algorithm 1).  An inference rule knows

* how to initialize the unprocessed set from a finite set of GTGDs — by
  head-normalizing (TGD-based algorithms) or Skolemizing (rule-based
  algorithms);
* how to combine a newly processed TGD/rule with the worked-off set to derive
  new TGDs/rules; and
* which of the worked-off TGDs/rules constitute the final Datalog rewriting.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import FrozenSet, Generic, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar, Union

from ..logic.atoms import Atom, Predicate
from ..logic.rules import Rule
from ..logic.tgd import TGD

Clause = Union[TGD, Rule]
ClauseT = TypeVar("ClauseT", TGD, Rule)


@dataclass(frozen=True)
class RewritingSettings:
    """Tuning knobs shared by all algorithms.

    ``use_subsumption``
        Enable redundancy elimination (forward + backward subsumption).  The
        "Impact of Subsumption" ablation of Section 7.2 turns this off.
    ``exact_subsumption``
        Use the exact NP-hard subsumption check instead of the normalized
        approximation of Section 6.
    ``use_lookahead``
        Enable the cheap lookahead optimization of Section 6.
    ``timeout_seconds``
        Wall-clock budget; ``None`` means unlimited.
    ``max_clauses``
        Safety valve on the total number of retained TGDs/rules.
    """

    use_subsumption: bool = True
    exact_subsumption: bool = False
    use_lookahead: bool = True
    timeout_seconds: Optional[float] = None
    max_clauses: Optional[int] = None

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds < 0:
            raise ValueError(
                f"timeout_seconds must be non-negative, got {self.timeout_seconds!r}"
            )
        if self.max_clauses is not None and self.max_clauses <= 0:
            raise ValueError(
                f"max_clauses must be positive, got {self.max_clauses!r}"
            )


@dataclass
class SaturationStatistics:
    """Counters describing a saturation run (reported by the benchmark harness).

    ``derived`` counts the head-normalized inference results offered to the
    redundancy checks.  ExbDR skips results that are variants of their
    non-full premise before building them, because admission would always
    discard them (see :mod:`repro.rewriting.exbdr`), so its ``derived`` does
    not count those.
    """

    input_size: int = 0
    derived: int = 0
    discarded_tautology: int = 0
    discarded_forward: int = 0
    discarded_duplicate: int = 0
    removed_backward: int = 0
    processed: int = 0
    retained: int = 0
    forward_checks: int = 0
    forward_candidates: int = 0
    backward_candidates: int = 0
    elapsed_seconds: float = 0.0
    timed_out: bool = False

    @property
    def subsumption_hit_rate(self) -> float:
        """Fraction of forward-subsumption queries that discarded the clause."""
        if not self.forward_checks:
            return 0.0
        return self.discarded_forward / self.forward_checks

    def as_dict(self) -> dict:
        return {
            "input_size": self.input_size,
            "derived": self.derived,
            "discarded_tautology": self.discarded_tautology,
            "discarded_forward": self.discarded_forward,
            "discarded_duplicate": self.discarded_duplicate,
            "removed_backward": self.removed_backward,
            "processed": self.processed,
            "retained": self.retained,
            "forward_checks": self.forward_checks,
            "forward_candidates": self.forward_candidates,
            "backward_candidates": self.backward_candidates,
            "subsumption_hit_rate": round(self.subsumption_hit_rate, 4),
            "elapsed_seconds": self.elapsed_seconds,
            "timed_out": self.timed_out,
        }


class InferenceRule(abc.ABC, Generic[ClauseT]):
    """The pluggable inference rule driving a saturation (Definition 5.3)."""

    #: short name used in reports ("ExbDR", "SkDR", ...)
    name: str = "Inf"

    def __init__(self, settings: Optional[RewritingSettings] = None) -> None:
        self.settings = settings or RewritingSettings()
        #: relations occurring in the body of some input GTGD; used by the
        #: cheap lookahead optimization (Section 6)
        self.sigma_body_predicates: FrozenSet[Predicate] = frozenset()
        self.sigma_head_width: int = 0
        self.sigma_body_width: int = 0
        self.sigma_constant_count: int = 0
        #: set by a rule that dropped inferences to stay within a cap (ExbDR's
        #: ``max_combinations``, HypDR's ``max_branches``, FullDR's
        #: ``max_substitutions_per_pair``); the saturation then reports its
        #: result as not completed
        self.truncated = False

    # ------------------------------------------------------------------
    # hooks implemented by each algorithm
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def initial_clauses(self, sigma: Sequence[TGD]) -> Tuple[ClauseT, ...]:
        """Transform the input GTGDs into the initial unprocessed set."""

    @abc.abstractmethod
    def register(self, clause: ClauseT) -> None:
        """Add a clause to the algorithm's unification indexes (worked-off set)."""

    @abc.abstractmethod
    def unregister(self, clause: ClauseT) -> None:
        """Remove a clause from the indexes (backward subsumption)."""

    @abc.abstractmethod
    def infer(
        self, clause: ClauseT, worked_off: Set[ClauseT]
    ) -> Iterable[ClauseT]:
        """Apply the inference rule to ``clause`` and premises from ``worked_off``.

        ``clause`` has already been registered, so self-inferences are found by
        querying the indexes.  Results need not be in head-normal form — the
        saturation engine normalizes them.
        """

    @abc.abstractmethod
    def extract_datalog(self, worked_off: Iterable[ClauseT]) -> Tuple[Rule, ...]:
        """Select the Skolem-free Datalog rules making up the final rewriting."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def prepare(self, sigma: Sequence[TGD]) -> None:
        """Record input-wide information used by optimizations."""
        body_predicates: Set[Predicate] = set()
        constants = set()
        for tgd in sigma:
            for atom in tgd.body:
                body_predicates.add(atom.predicate)
            constants.update(tgd.constants())
        self.sigma_body_predicates = frozenset(body_predicates)
        self.sigma_head_width = max((tgd.head_width for tgd in sigma), default=0)
        self.sigma_body_width = max((tgd.body_width for tgd in sigma), default=0)
        self.sigma_constant_count = len(constants)

    def normalize_results(self, clauses: Iterable[Clause]) -> Tuple[Clause, ...]:
        """Bring inference results into head-normal form (TGDs) or keep rules."""
        normalized: List[Clause] = []
        for clause in clauses:
            if isinstance(clause, TGD):
                normalized.extend(clause.head_normal_form())
            else:
                normalized.append(clause)
        return tuple(normalized)


def dedupe_atoms(atoms: Iterable[Atom]) -> Tuple[Atom, ...]:
    """The atoms without repeats, each kept at its first occurrence."""
    return tuple(dict.fromkeys(atoms))


@dataclass
class RewritingResult:
    """The output of a rewriting run."""

    algorithm: str
    datalog_rules: Tuple[Rule, ...]
    statistics: SaturationStatistics
    worked_off_size: int
    completed: bool

    @property
    def output_size(self) -> int:
        """Number of Datalog rules in the rewriting (the paper's "output size")."""
        return len(self.datalog_rules)

    def blowup(self) -> float:
        """Output size divided by input size (the paper's "size blowup")."""
        if self.statistics.input_size == 0:
            return 0.0
        return self.output_size / self.statistics.input_size

    def max_body_atoms(self) -> int:
        return max((len(rule.body) for rule in self.datalog_rules), default=0)

    def program(self):
        """The rewriting as a :class:`repro.datalog.DatalogProgram`."""
        from ..datalog.program import DatalogProgram

        return DatalogProgram(self.datalog_rules)
