"""Benchmark runner: executes rewriting algorithms over benchmark inputs.

Each run records the measurements reported in Figures 4 and 5 of the paper:
wall-clock rewriting time, input size (TGDs after head normalization for the
TGD-based algorithms, rules after Skolemization for the Skolemized ones),
output size (number of Datalog rules), size blow-up, and the maximum number
of body atoms in the output.  Runs that exceed the time budget are marked as
timeouts, matching the paper's ten-minute-limit methodology at a smaller
scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..dl.kaon2_baseline import Kaon2Baseline, UnsupportedArityError
from ..logic.tgd import TGD
from ..rewriting.base import RewritingResult, RewritingSettings
from ..rewriting.rewriter import rewrite
from ..workloads.ontology_suite import BenchmarkInput


@dataclass
class RunRecord:
    """One (algorithm, input) measurement."""

    algorithm: str
    input_id: str
    input_size: int
    output_size: int
    max_body_atoms: int
    elapsed_seconds: float
    timed_out: bool
    unsupported: bool = False

    @property
    def succeeded(self) -> bool:
        return not self.timed_out and not self.unsupported

    @property
    def blowup(self) -> float:
        if self.input_size == 0:
            return 0.0
        return self.output_size / self.input_size

    def as_dict(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "input_id": self.input_id,
            "input_size": self.input_size,
            "output_size": self.output_size,
            "max_body_atoms": self.max_body_atoms,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "timed_out": self.timed_out,
            "unsupported": self.unsupported,
        }


@dataclass
class BenchmarkRunner:
    """Runs a set of algorithms over a suite of benchmark inputs."""

    timeout_seconds: float = 20.0
    settings: Optional[RewritingSettings] = None
    include_kaon2: bool = True

    def _settings_with_timeout(self) -> RewritingSettings:
        base = self.settings or RewritingSettings()
        return RewritingSettings(
            use_subsumption=base.use_subsumption,
            exact_subsumption=base.exact_subsumption,
            use_lookahead=base.use_lookahead,
            timeout_seconds=self.timeout_seconds,
            max_clauses=base.max_clauses,
        )

    # ------------------------------------------------------------------
    # single runs
    # ------------------------------------------------------------------
    def run_algorithm(
        self, algorithm: str, benchmark_input: BenchmarkInput
    ) -> RunRecord:
        """Run one of our algorithms (or the KAON2 baseline) on one input."""
        settings = self._settings_with_timeout()
        start = time.monotonic()
        try:
            if algorithm.lower() == "kaon2":
                baseline = Kaon2Baseline(settings=settings)
                result = baseline.rewrite_ontology(benchmark_input.ontology)
            else:
                result = rewrite(
                    benchmark_input.tgds, algorithm=algorithm, settings=settings
                )
        except UnsupportedArityError:
            return RunRecord(
                algorithm=algorithm,
                input_id=benchmark_input.identifier,
                input_size=0,
                output_size=0,
                max_body_atoms=0,
                elapsed_seconds=time.monotonic() - start,
                timed_out=False,
                unsupported=True,
            )
        elapsed = time.monotonic() - start
        return RunRecord(
            algorithm=algorithm,
            input_id=benchmark_input.identifier,
            input_size=result.statistics.input_size,
            output_size=result.output_size,
            max_body_atoms=result.max_body_atoms(),
            elapsed_seconds=elapsed,
            timed_out=not result.completed,
        )

    # ------------------------------------------------------------------
    # suite runs
    # ------------------------------------------------------------------
    def run_suite(
        self,
        inputs: Sequence[BenchmarkInput],
        algorithms: Sequence[str] = ("exbdr", "skdr", "hypdr"),
        progress: Optional[Callable[[str, str], None]] = None,
    ) -> Tuple[RunRecord, ...]:
        """Run every algorithm on every input."""
        algorithm_list = list(algorithms)
        if self.include_kaon2 and "kaon2" not in [a.lower() for a in algorithm_list]:
            algorithm_list.append("kaon2")
        records: List[RunRecord] = []
        for benchmark_input in inputs:
            for algorithm in algorithm_list:
                if progress is not None:
                    progress(algorithm, benchmark_input.identifier)
                records.append(self.run_algorithm(algorithm, benchmark_input))
        return tuple(records)


def run_on_tgds(
    tgds: Iterable[TGD],
    algorithm: str,
    timeout_seconds: float = 20.0,
    settings: Optional[RewritingSettings] = None,
) -> Tuple[RewritingResult, float]:
    """Run one algorithm on raw TGDs; return the result and elapsed seconds."""
    base = settings or RewritingSettings()
    effective = RewritingSettings(
        use_subsumption=base.use_subsumption,
        exact_subsumption=base.exact_subsumption,
        use_lookahead=base.use_lookahead,
        timeout_seconds=timeout_seconds,
        max_clauses=base.max_clauses,
    )
    start = time.monotonic()
    result = rewrite(tuple(tgds), algorithm=algorithm, settings=effective)
    return result, time.monotonic() - start
