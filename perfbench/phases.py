"""The four measured phases of the benchmark: compile, answer, update, serve.

Every workload runs all four phases, because every run reports every
end-to-end metric.  The phases a workload names run at full size and get
most of the run's time; the other two run at sentinel size, so a change
that moves cost onto a sibling layer still shows.

A phase builds its inputs in ``setup`` (timed, and repeated, by the
caller) and offers ``tasks``: passes that each time a fixed set of
operations.  :func:`schedule` interleaves the passes of several phases
over a stage of the run.  ``verify`` then checks every recorded output
against an oracle, and ``layers`` turns a traced period into per-layer
metrics.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import math
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.datalog.session as session_module
import repro.serve.workers as workers_module
from repro import KnowledgeBase, QueryOptions, parse_query
from repro.chase.guarded_engine import GuardedChaseReasoner
from repro.datalog import materialize
from repro.datalog.engine import compiled_engine
from repro.logic.interning import clear_intern_caches, intern_stats
from repro.logic.parser import parse_tgds
from repro.rewriting import RewritingSettings, rewrite
from repro.serve.protocol import encode_answers
from repro.serve.server import ReasoningServer, ServedKB
from repro.unification.solver import match_solver_stats

from inputs import (
    ALGORITHMS,
    REWRITE_TIMEOUT_S,
    Sizes,
    base_instance,
    corpus_texts,
    fixed_rng,
    join_query_texts,
    oracle_instance,
    point_query_texts,
    serve_inputs,
    update_stream,
)
from spans import Tracer, covered_time

#: every task runs at least this many passes per stage, however short
MIN_PASSES = 2

#: seconds the reference loop took on the 2-core host the benchmark was
#: tuned on, in its fast periods; every time is reported at that speed
REFERENCE_S = 0.0016
#: one reading of the host's slowdown runs the reference loop this often
REFERENCE_REPEATS = 2
#: within a pass, the slowdown is read again once this much time has passed
READ_EVERY_S = 0.05

MATERIALIZED = QueryOptions(strategy="materialized")
DEMAND = QueryOptions(strategy="demand")

#: a pass's timings: per metric, the seconds of each operation in a fixed set
Sample = Dict[str, List[float]]


class Ledger:
    """Operations attempted and failed, with the failures counted by kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, int] = {}

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, kind: str, count: int = 1) -> None:
        self.failed += count
        self.failures[kind] = self.failures.get(kind, 0) + count

    def check(self, kind: str, expected: object, actual: object) -> bool:
        """One oracle comparison: an attempted operation, failed on mismatch."""
        self.attempt()
        if expected != actual:
            self.fail(kind)
            return False
        return True


@dataclass
class Task:
    """One kind of pass: its name, its share of the phase's time, its body.

    The shares of a phase's tasks add up to one.  Every pass of a task
    times the same operations in the same order.
    """

    name: str
    share: float
    run: Callable[[], Sample]


def _reference_loop() -> int:
    """A fixed piece of pure-Python work: tuple keys, dict updates, appends."""
    table: Dict[Tuple[int, int], int] = {}
    rows = []
    for i in range(6000):
        key = (i & 1023, i % 7)
        table[key] = table.get(key, 0) + 1
        rows.append(key)
    return len(rows) + len(table)


def slowdown() -> float:
    """How much slower than ``REFERENCE_S`` the host runs the reference loop now.

    The shared host the benchmark was tuned on changes speed by up to 1.7x
    for seconds at a time, and the reference loop slows in lockstep with
    the program: over a minute of interleaved rewriting passes, medians of
    10-second blocks moved 1.72x raw and 1.05x divided by this factor.
    """
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        _reference_loop()
    return (time.perf_counter() - start) / REFERENCE_REPEATS / REFERENCE_S


class HostClock:
    """Times a pass's operations at the reference host speed.

    :func:`slowdown` is read when the pass begins, whenever ``READ_EVERY_S``
    has passed since the last reading, and when the pass ends.  Each
    operation timed through :meth:`op` is divided by the mean of the two
    readings around it; a pass that times nothing through :meth:`op` is
    divided as a whole by the mean of its first and last reading.  The
    speed changes within a second as well, so frequent readings leave
    less of it in the times than readings at the pass's ends alone.
    """

    def __init__(self) -> None:
        self.begin()

    def begin(self) -> None:
        self.first = self.last = slowdown()
        self.mark = time.perf_counter()
        #: the id of the sample list of each operation since the last reading
        self.pending: List[int] = []
        #: per sample list, the factor of each of its entries
        self.factors: Dict[int, List[float]] = {}

    @contextmanager
    def op(self, into: List[float]):
        """Time the body and append its raw seconds to ``into``."""
        start = time.perf_counter()
        yield
        into.append(time.perf_counter() - start)
        self.pending.append(id(into))
        if time.perf_counter() - self.mark >= READ_EVERY_S:
            self._read()

    def _read(self) -> None:
        reading = slowdown()
        factor = (self.last + reading) / 2
        for key in self.pending:
            self.factors.setdefault(key, []).append(factor)
        self.pending = []
        self.last = reading
        self.mark = time.perf_counter()

    def end(self, sample: Sample) -> Tuple[Sample, float]:
        """``(sample at reference speed, mean of the first and last reading)``."""
        self._read()
        whole = (self.first + self.last) / 2
        scaled = {}
        for name, values in sample.items():
            factors = self.factors.get(id(values), [whole] * len(values))
            scaled[name] = [value / factor for value, factor in zip(values, factors)]
        return scaled, whole


#: the clock every phase times its operations with
CLOCK = HostClock()


def schedule(
    budget_s: float, tasks: Sequence[Tuple[float, Task]]
) -> Tuple[Dict[str, List[List[float]]], Dict[str, int]]:
    """Interleave passes of weighted tasks until the budget is spent.

    Each step runs the task furthest below its share of the time used so
    far, so every task's passes spread over the whole period, and every
    task runs at least ``MIN_PASSES`` times.  Returns the samples of every
    metric and the passes of every task.

    Every sample is put at the reference host speed by :data:`CLOCK`; each
    pass's mean slowdown is a ``host_slowdown`` sample.

    Each pass starts from a collected heap with everything alive frozen
    out of the collector, so the collections inside a pass scan only what
    the pass allocates and fall at the same points in every pass of a task.
    Left to run, a full collection of what earlier passes kept alive fell
    into some passes and not others: the last ontology of a compile pass
    took 7 ms or 30-48 ms.
    """
    used = [0.0] * len(tasks)
    passes = [0] * len(tasks)
    samples: Dict[str, List[List[float]]] = {}
    deadline = time.perf_counter() + budget_s
    try:
        while True:
            short = [index for index in range(len(tasks)) if passes[index] < MIN_PASSES]
            if not short and time.perf_counter() >= deadline:
                break
            index = min(short or range(len(tasks)), key=lambda i: used[i] / tasks[i][0])
            start = time.perf_counter()
            gc.collect()
            gc.freeze()
            CLOCK.begin()
            sample, factor = CLOCK.end(tasks[index][1].run())
            used[index] += time.perf_counter() - start
            passes[index] += 1
            for name, values in sample.items():
                samples.setdefault(name, []).append(values)
            samples.setdefault("host_slowdown", []).append([factor])
    finally:
        gc.unfreeze()
    return samples, {task.name: count for (_, task), count in zip(tasks, passes)}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Phase:
    name = ""

    def __init__(self, sizes: Sizes, seed: int, ledger: Ledger, workdir: Path) -> None:
        self.sizes = sizes
        self.seed = seed
        self.ledger = ledger
        self.workdir = workdir
        self.tracer = Tracer(False)

    def start(self, tracer: Tracer) -> None:
        """Begin a measured period recorded by ``tracer``."""
        self.tracer = tracer

    def stop(self) -> None:
        self.tracer.unpatch_all()

    def close(self) -> None:
        """Release what ``setup`` started."""


# ----------------------------------------------------------------------
# compile: parse_tgds -> rewrite -> KnowledgeBase.save -> load, all cold
# ----------------------------------------------------------------------
class CompilePhase(Phase):
    name = "compile"

    #: an ExbDR pass costs about five times an SkDR or HypDR pass, but its
    #: median over passes spreads least between runs
    SHARES = {"exbdr": 0.4, "skdr": 0.3, "hypdr": 0.3}
    #: ontologies per run that the chase oracle checks; two of the full
    #: corpus take the chase seconds each, so the seed picks a subset, and
    #: the three algorithms are checked against each other on all of them
    CHASE_CHECKS = 4

    def setup(self, kbs: Sequence[KnowledgeBase]) -> None:
        self.texts = corpus_texts(self.sizes)
        self.settings = RewritingSettings(timeout_seconds=REWRITE_TIMEOUT_S)
        self.loaded: Dict[str, List[KnowledgeBase]] = {}
        self.rules_out: Dict[str, int] = {}

    def start(self, tracer: Tracer) -> None:
        super().start(tracer)
        self.counters: Dict[str, Dict[str, int]] = {alg: {} for alg in ALGORITHMS}
        self.elapsed = 0.0

    def timed_s(self) -> float:
        """Seconds inside the phase's timed regions in the current period."""
        return self.elapsed

    def tasks(self) -> List[Task]:
        return [Task(alg, self.SHARES[alg], lambda alg=alg: self.one_pass(alg)) for alg in ALGORITHMS]

    def one_pass(self, alg: str) -> Sample:
        tracer = self.tracer
        clear_intern_caches()  # every pass starts cold
        solver_before = match_solver_stats()
        loaded, seconds = [], []
        for index, text in enumerate(self.texts):
            with CLOCK.op(seconds):
                with tracer.span("logic.parser"):
                    tgds = parse_tgds(text)
                with tracer.span(f"rewriting.{alg}"):
                    result = rewrite(tgds, algorithm=alg, settings=self.settings)
                path = self.workdir / f"{alg}-{index}.kb.json"
                with tracer.span("kb.format.save"):
                    KnowledgeBase(tgds=tgds, rewriting=result).save(path)
                with tracer.span("kb.format.load"):
                    loaded.append(KnowledgeBase.load(path))
        self.elapsed += sum(seconds)
        self.ledger.attempt(len(loaded))
        for kb in loaded:
            if not kb.rewriting.completed:
                self.ledger.fail("rewrite_timeout")
        self.loaded[alg] = loaded
        self.rules_out[alg] = sum(kb.rewriting.output_size for kb in loaded)
        if tracer.enabled:
            self._count(alg, loaded, solver_before)
        return {f"{alg}_s": seconds}

    def total_rules(self) -> int:
        """Datalog rules output by the three algorithms on the corpus."""
        return sum(self.rules_out.values())

    def _count(self, alg: str, loaded: List[KnowledgeBase], solver_before: Dict[str, int]) -> None:
        counters = self.counters[alg]

        def add(key: str, value: int) -> None:
            counters[key] = counters.get(key, 0) + value

        for kb in loaded:
            stats = kb.rewriting.statistics
            for key in (
                "processed",
                "derived",
                "retained",
                "discarded_duplicate",
                "discarded_forward",
                "forward_checks",
                "removed_backward",
            ):
                add(key, getattr(stats, key))
        solver_after = match_solver_stats()
        for key in ("solves", "nodes_expanded"):
            add(f"solver_{key}", solver_after[key] - solver_before[key])
        overall = intern_stats()["overall"]
        add("intern_hits", overall["hits"])
        add("intern_misses", overall["misses"])
        add("kb_bytes", sum(p.stat().st_size for p in self.workdir.glob(f"{alg}-*.kb.json")))

    def verify(self) -> None:
        """The algorithms agree on every ontology, and match the chase on some."""
        count = len(self.texts)
        chased = set(random.Random(self.seed).sample(range(count), min(count, self.CHASE_CHECKS)))
        for index, text in enumerate(self.texts):
            tgds = parse_tgds(text)
            instance = oracle_instance(tgds, self.sizes, seed=self.seed * 100 + index)
            answers = [self.loaded[alg][index].session(instance).certain_base_facts() for alg in ALGORITHMS]
            for other in answers[1:]:
                self.ledger.check("compile_algorithms_disagree", answers[0], other)
            if index in chased:
                expected = GuardedChaseReasoner(tgds).entailed_base_facts(instance)
                for answer in answers:
                    self.ledger.check("compile_oracle_mismatch", expected, answer)

    def layers(self, passes: Dict[str, int]) -> Dict[str, float]:
        tracer = self.tracer
        all_passes = sum(passes[alg] for alg in ALGORITHMS)
        totals: Dict[str, int] = {}
        for counters in self.counters.values():
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
        out = {
            "logic.parser.s": tracer.total("logic.parser") / all_passes,
            "logic.interning.hit_rate": _ratio(
                totals["intern_hits"], totals["intern_hits"] + totals["intern_misses"]
            ),
            "unification.solver.solves": totals["solver_solves"] / all_passes,
            "unification.solver.nodes_expanded": totals["solver_nodes_expanded"] / all_passes,
            "kb.format.save_s": tracer.total("kb.format.save") / all_passes,
            "kb.format.load_s": tracer.total("kb.format.load") / all_passes,
            "kb.format.bytes": totals["kb_bytes"] / all_passes,
        }
        for alg, c in self.counters.items():
            prefix, runs = f"rewriting.{alg}.", passes[alg]
            out[prefix + "s"] = tracer.total(f"rewriting.{alg}") / runs
            out[prefix + "processed"] = c["processed"] / runs
            out[prefix + "derived"] = c["derived"] / runs
            out[prefix + "retained"] = c["retained"] / runs
            out[prefix + "yield"] = _ratio(c["retained"], c["derived"])
            out[prefix + "duplicate_rate"] = _ratio(c["discarded_duplicate"], c["derived"])
            out[prefix + "forward_hit_rate"] = _ratio(c["discarded_forward"], c["forward_checks"])
            out[prefix + "backward_removed"] = c["removed_backward"] / runs
        return out


# ----------------------------------------------------------------------
# answer: cold point queries, full materialization, joins on warm sessions
# ----------------------------------------------------------------------
class AnswerPhase(Phase):
    name = "answer"

    def setup(self, kbs: Sequence[KnowledgeBase]) -> None:
        self.cases = []
        self.plan_compile_s = 0.0
        for index, kb in enumerate(kbs[: self.sizes.answer_kbs]):
            start = time.perf_counter()
            compiled_engine(kb.program)
            self.plan_compile_s += time.perf_counter() - start
            data = base_instance(kb, self.sizes.answer_facts, stream=index, seed=self.seed)
            texts = point_query_texts(kb, data.original, self.sizes.point_queries_per_kb, fixed_rng(index))
            points = [parse_query(data.text(text)) for text in texts]
            joins = [parse_query(text) for text in join_query_texts(kb, self.sizes.join_queries_per_kb)]
            facts = data.facts
            self.cases.append((kb, facts, points, joins))
        self.auto_seconds: Dict[Tuple[int, int], List[float]] = {}
        #: the first pass's point answers; later passes are checked against it
        self.point_answers: Optional[List] = None
        self.sessions: List = []

    def start(self, tracer: Tracer) -> None:
        super().start(tracer)
        self.magic_reports: List = []
        self.elapsed = 0.0
        if tracer.enabled:
            reports = self.magic_reports
            tracer.patch(
                session_module,
                "demand_answer",
                "datalog.magic",
                observe=lambda result: reports.append(result.report),
            )

    def timed_s(self) -> float:
        """Seconds inside the phase's timed regions in the current period."""
        return self.elapsed

    def tasks(self) -> List[Task]:
        return [
            Task("point", 0.6, self.point_pass),
            Task("materialize", 0.25, self.materialize_pass),
            Task("query", 0.15, self.query_pass),
        ]

    def point_pass(self) -> Sample:
        answers, seconds = [], []
        for case_index, (kb, facts, points, _) in enumerate(self.cases):
            for query_index, query in enumerate(points):
                with CLOCK.op(seconds), self.tracer.span("datalog.point"):
                    answers.append(kb.answer_many([query], facts)[0])
                self.auto_seconds.setdefault((case_index, query_index), []).append(seconds[-1])
        self.elapsed += sum(seconds)
        if self.point_answers is None:
            self.point_answers = answers
        else:
            self.ledger.check("point_answers_changed", self.point_answers, answers)
        return {"point_s": seconds}

    def materialize_pass(self) -> Sample:
        sessions, seconds = [], []
        for kb, facts, _, _ in self.cases:
            with CLOCK.op(seconds), self.tracer.span("datalog.session.open"):
                sessions.append(kb.session(facts))
        self.elapsed += sum(seconds)
        self.ledger.attempt(len(sessions))
        self.sessions = sessions
        return {"materialize_s": seconds}

    def query_pass(self) -> Sample:
        if not self.sessions:
            self.sessions = [kb.session(facts) for kb, facts, _, _ in self.cases]
        results, seconds = [], []
        for session, (_, _, _, joins) in zip(self.sessions, self.cases):
            with CLOCK.op(seconds), self.tracer.span("datalog.query"):
                results.append(session.answer_many(joins))
        self.elapsed += sum(seconds)
        self.ledger.attempt(sum(len(r) for r in results))
        self.query_answers = sum(len(a) for r in results for a in r)
        return {"query_s": seconds}

    def verify(self) -> None:
        """Every ``auto`` answer equals the materialized answer."""
        sessions = [kb.session(facts) for kb, facts, _, _ in self.cases]
        expected = [
            session.answer(query, options=MATERIALIZED)
            for session, (_, _, points, _) in zip(sessions, self.cases)
            for query in points
        ]
        for want, got in zip(expected, self.point_answers):
            self.ledger.check("auto_answer_mismatch", want, got)

    def regret(self) -> Dict[str, float]:
        """``auto`` time over the faster of demand-only and materialize-then-answer."""
        regrets = []
        demand_count = 0
        for case_index, (kb, facts, points, _) in enumerate(self.cases):
            for query_index, query in enumerate(points):
                if kb.session(facts, defer_materialization=True).resolve_strategy(query) == "demand":
                    demand_count += 1
                gc.collect()
                start = time.perf_counter()
                kb.session(facts, defer_materialization=True).answer(query, options=DEMAND)
                demand = time.perf_counter() - start
                gc.collect()
                start = time.perf_counter()
                kb.session(facts).answer(query, options=MATERIALIZED)
                materialized = time.perf_counter() - start
                auto = min(self.auto_seconds[(case_index, query_index)])
                regrets.append(auto / min(demand, materialized))
        return {
            "datalog.magic.auto_demand_share": _ratio(demand_count, len(regrets)),
            "datalog.magic.auto_regret_max": max(regrets),
            "datalog.magic.auto_regret_geomean": math.exp(
                sum(math.log(value) for value in regrets) / len(regrets)
            ),
        }

    def layers(self, passes: Dict[str, int]) -> Dict[str, float]:
        tracer = self.tracer
        rounds = derived = applications = probes = hits = 0
        rows = terms = index_bytes = 0
        for session in self.sessions:
            snapshot = session.snapshot()
            rounds += snapshot.rounds
            derived += snapshot.derived_count
            applications += snapshot.rule_applications
            join = session.join_stats
            probes += join["probes"]
            hits += join["probe_hits"]
            store = session.store.stats()
            rows += store["rows"]
            terms += store["term_table_size"]
            index_bytes += store["index_memory_bytes"]
        reports = self.magic_reports
        out = {
            "datalog.plan.compile_s": self.plan_compile_s,
            "datalog.plan.plans": float(
                sum(compiled_engine(kb.program).compiled_plan_count() for kb, _, _, _ in self.cases)
            ),
            "datalog.engine.materialize_s": tracer.total("datalog.session.open") / passes["materialize"],
            "datalog.engine.rounds": float(rounds),
            "datalog.engine.derived": float(derived),
            "datalog.engine.rule_applications": float(applications),
            "datalog.engine.join_probes": float(probes),
            "datalog.engine.join_hit_rate": _ratio(hits, probes),
            "datalog.store.rows": float(rows),
            "datalog.store.term_table_size": float(terms),
            "datalog.store.index_memory_bytes": float(index_bytes),
            "datalog.magic.s": tracer.total("datalog.magic") / passes["point"],
            "datalog.magic.magic_facts": sum(r.magic_facts for r in reports) / passes["point"],
            "datalog.magic.predicates_touched_frac": _ratio(
                sum(_ratio(r.predicates_touched, r.predicates_total) for r in reports), len(reports)
            ),
            "datalog.query.s": tracer.total("datalog.query") / passes["query"],
            "datalog.query.answers": float(self.query_answers),
        }
        out.update(self.regret())
        return out


# ----------------------------------------------------------------------
# update: a fixed stream of add_facts / retract_facts on live sessions
# ----------------------------------------------------------------------
class UpdatePhase(Phase):
    name = "update"

    #: the oracle re-materializes from scratch after every this many ops
    CHECK_EVERY = 20

    def setup(self, kbs: Sequence[KnowledgeBase]) -> None:
        self.cases = []
        for index, kb in enumerate(kbs[: self.sizes.update_kbs]):
            data = base_instance(kb, self.sizes.update_facts, stream=500 + index, seed=self.seed)
            base, ops = update_stream(data.original, self.sizes, fixed_rng(500 + index))
            base = tuple(data.fact(fact) for fact in base)
            ops = [(kind, tuple(data.fact(fact) for fact in batch)) for kind, batch in ops]
            self.cases.append((kb, base, ops))
        #: the first pass's final facts; later passes are checked against it
        self.final_facts: Optional[List] = None

    def start(self, tracer: Tracer) -> None:
        super().start(tracer)
        self.dred: Dict[str, int] = {}
        self.elapsed = 0.0

    def timed_s(self) -> float:
        """Seconds inside the phase's timed regions in the current period."""
        return self.elapsed

    def tasks(self) -> List[Task]:
        return [Task("stream", 1.0, self.one_pass)]

    def one_pass(self) -> Sample:
        tracer = self.tracer
        sessions = [kb.session(base) for kb, base, _ in self.cases]
        adds: List[float] = []
        retracts: List[float] = []
        for session, (_, _, ops) in zip(sessions, self.cases):
            for kind, batch in ops:
                if kind == "add":
                    with CLOCK.op(adds), tracer.span("datalog.session.add"):
                        session.add_facts(batch)
                else:
                    with CLOCK.op(retracts), tracer.span("datalog.session.retract"):
                        result = session.retract_facts(batch)
                    if tracer.enabled:
                        for key in ("overdeleted", "rederived", "net_removed", "rounds"):
                            self.dred[key] = self.dred.get(key, 0) + getattr(result, key)
            self.ledger.attempt(len(ops))
        self.elapsed += sum(adds) + sum(retracts)
        final = [session.facts() for session in sessions]
        if self.final_facts is None:
            self.final_facts = final
        else:
            self.ledger.check("update_result_changed", self.final_facts, final)
        return {"add_s": adds, "retract_s": retracts}

    def verify(self) -> None:
        """The session equals a from-scratch materialization of the survivors."""
        for case_index, (kb, base, ops) in enumerate(self.cases):
            session = kb.session(base)
            survivors = set(base)
            for op_index, (kind, batch) in enumerate(ops, start=1):
                if kind == "add":
                    session.add_facts(batch)
                    survivors.update(batch)
                else:
                    session.retract_facts(batch)
                    survivors.difference_update(batch)
                if op_index % self.CHECK_EVERY == 0 or op_index == len(ops):
                    expected = materialize(kb.program, sorted(survivors, key=str)).facts()
                    self.ledger.check("update_oracle_mismatch", expected, session.facts())
            self.ledger.check("update_oracle_mismatch", expected, self.final_facts[case_index])

    def layers(self, passes: Dict[str, int]) -> Dict[str, float]:
        runs = passes["stream"]
        dred = {key: value / runs for key, value in self.dred.items()}
        return {
            "datalog.session.add_s": self.tracer.total("datalog.session.add") / runs,
            "datalog.session.retract_s": self.tracer.total("datalog.session.retract") / runs,
            "datalog.dred.overdeleted": dred["overdeleted"],
            "datalog.dred.rederived": dred["rederived"],
            "datalog.dred.net_removed": dred["net_removed"],
            "datalog.dred.rounds": dred["rounds"],
            "datalog.dred.waste": _ratio(dred["overdeleted"], max(1.0, dred["net_removed"])),
        }


# ----------------------------------------------------------------------
# serve: open-loop traffic at a fixed rate against ReasoningServer
# ----------------------------------------------------------------------
def digest(encoded_answers: object) -> bytes:
    """A fixed-size fingerprint of encoded answers, so a run keeps every
    response's without keeping the responses."""
    return hashlib.blake2b(json.dumps(encoded_answers).encode("utf-8"), digest_size=16).digest()


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    index = min(len(sorted_values) - 1, max(0, math.ceil(fraction * len(sorted_values)) - 1))
    return sorted_values[index]


class ServePhase(Phase):
    """One event loop, in-process clients, the inline worker tier.

    Traffic comes in segments of ``serve_segment_s`` seconds.  Within a segment
    requests are sent on a fixed schedule whatever the server's state (an
    open loop), and each is timed from when it was due, so a stall also
    counts against the requests queued behind it.
    """

    name = "serve"

    def __init__(self, *args, loop: asyncio.AbstractEventLoop, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.loop = loop
        self.server: Optional[ReasoningServer] = None

    def setup(self, kbs: Sequence[KnowledgeBase]) -> None:
        self.close()
        kb = kbs[0]
        data = base_instance(kb, self.sizes.serve_facts, stream=900, seed=self.seed)
        self.facts = data.facts
        path = self.workdir / "serve.kb.json"
        start = time.perf_counter()
        kb.save(path)
        self.kb = KnowledgeBase.load(path)
        self.kb_format_s = time.perf_counter() - start
        self.inputs = serve_inputs(self.kb, data, self.sizes, fixed_rng(900))
        self.rng = random.Random(self.seed)
        self.server = ReasoningServer([ServedKB("bench", self.kb, self.facts)], workers=0)
        self.loop.run_until_complete(self.server.start())
        self.loop.run_until_complete(self.server.warm())
        #: every mutation sent so far, in order: (kind, chunk index)
        self.mutations: List[Tuple[str, int]] = []
        self.latencies: List[float] = []
        #: ((kind, chunk), milliseconds) of every mutation
        self.mutation_ms: List[Tuple[Tuple[str, int], float]] = []
        #: (query, generation, answer digest) of every query response
        self.observed: List[Tuple[str, int, bytes]] = []
        self.queries_sent = 0

    def close(self) -> None:
        if self.server is not None:
            self.loop.run_until_complete(self.server.shutdown())
            self.server = None

    def start(self, tracer: Tracer) -> None:
        super().start(tracer)
        self.windows: List[Tuple[float, float]] = []
        self.late: List[float] = []
        self.wall = 0.0
        self.stats_before = self.server.stats()
        if tracer.enabled:
            tracer.patch(workers_module.WorkerState, "answer_batch", "serve.workers.batch")
            tracer.patch(workers_module.WorkerState, "apply_mutation", "serve.workers.mutation")
            tracer.patch(workers_module, "encode_answers", "serve.protocol.encode")

    def stop(self) -> None:
        super().stop()
        self.stats_after = self.server.stats()

    def tasks(self) -> List[Task]:
        return [Task("segment", 1.0, self.segment)]

    def _events(self) -> List[Tuple[str, object]]:
        events: List[Tuple[str, object]] = []
        for _ in range(int(self.sizes.serve_rate * self.sizes.serve_segment_s)):
            self.queries_sent += 1
            every = self.sizes.serve_mutation_every
            if every and self.queries_sent % every == 0:
                number = len(self.mutations)
                kind = "retract" if number % 2 == 0 else "add"
                self.mutations.append((kind, (number // 2) % len(self.inputs.chunks)))
                events.append((kind, number))
            else:
                events.append(("query", self.inputs.draw(self.rng)))
        return events

    async def _drive(self, events):
        client = self.server.local_client()
        results: List = [None] * len(events)
        late: List[float] = []
        interval = 1.0 / self.sizes.serve_rate

        async def send(index: int, kind: str, payload: object, due: float) -> None:
            if kind == "query":
                message = {"op": "query", "query": payload}
            else:
                message = {"op": kind, "facts": self.inputs.chunks[self.mutations[payload][1]]}
            response = await client.request(message)
            results[index] = (due, time.perf_counter(), response)

        tasks = []
        start = time.perf_counter() + 0.002
        for index, (kind, payload) in enumerate(events):
            due = start + index * interval
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.perf_counter() - due)
            tasks.append(asyncio.create_task(send(index, kind, payload, due)))
        await asyncio.gather(*tasks)
        return results, late, time.perf_counter() - start

    def segment(self) -> Sample:
        events = self._events()
        results, late, wall = self.loop.run_until_complete(self._drive(events))
        self.wall += wall
        self.late.extend(late)
        latencies = []
        for (kind, payload), (due, done, response) in zip(events, results):
            self.ledger.attempt()
            if not response.get("ok"):
                self.ledger.fail(f"serve_{response.get('error_kind') or 'error'}")
                continue
            if kind == "query":
                latencies.append(done - due)
                self.windows.append((due, done))
                self.tracer.record("serve.request", due, done)
                self.observed.append((payload, response["generation"], digest(response["answers"])))
            else:
                self.ledger.check("serve_mutation_generation", payload + 1, response["generation"])
                self.mutation_ms.append((self.mutations[payload], (done - due) * 1000))
        self.latencies.extend(latencies)
        return {"request_ms": [latency * 1000 for latency in latencies]}

    def verify(self) -> None:
        """Every response equals ``KnowledgeBase.answer_many`` at its generation."""
        removed_at: Dict[int, frozenset] = {0: frozenset()}
        removed = set()
        for number, (kind, chunk) in enumerate(self.mutations, start=1):
            facts = self.inputs.chunk_facts[chunk]
            if kind == "retract":
                removed.update(facts)
            else:
                removed.difference_update(facts)
            removed_at[number] = frozenset(removed)
        needed: Dict[frozenset, set] = {}
        for text, generation, _ in self.observed:
            if generation in removed_at:
                needed.setdefault(removed_at[generation], set()).add(text)
        expected: Dict[frozenset, Dict[str, object]] = {}
        for gone, texts in needed.items():
            state = [fact for fact in self.facts if fact not in gone]
            ordered = sorted(texts)
            answers = self.kb.answer_many([parse_query(t) for t in ordered], state, options=MATERIALIZED)
            expected[gone] = {t: digest(encode_answers(a)) for t, a in zip(ordered, answers)}
        for text, generation, answers in self.observed:
            if generation not in removed_at:
                self.ledger.attempt()
                self.ledger.fail("serve_unknown_generation")
                continue
            self.ledger.check("serve_answer_mismatch", expected[removed_at[generation]][text], answers)

    def resilience(self) -> Dict[str, object]:
        return dict(self.server.stats()["resilience"])

    def mutation_latency_ms(self) -> Dict[str, float]:
        """Median and worst latency of the mutations, whose barrier sets the tail."""
        latencies = sorted(ms for _, ms in self.mutation_ms)
        if not latencies:
            return {}
        return {"count": len(latencies), "p50": percentile(latencies, 0.5), "max": latencies[-1]}

    def layers(self, passes: Dict[str, int]) -> Dict[str, float]:
        tracer = self.tracer
        before, after = self.stats_before, self.stats_after
        cache = {
            key: after["answer_cache"][key] - before["answer_cache"][key]
            for key in ("hits", "misses", "evictions", "invalidations", "stale_drops")
        }
        batching = {
            key: after["batching"][key] - before["batching"][key]
            for key in ("batches", "requests", "dedup_saved")
        }
        kb_before = next(iter(before["kbs"].values()))
        kb_after = next(iter(after["kbs"].values()))
        worker_spans = sorted(
            tracer.intervals("serve.workers.batch") + tracer.intervals("serve.workers.mutation")
        )
        starts = [start for start, _ in worker_spans]
        total_latency = sum(done - due for due, done in self.windows)
        covered = sum(covered_time(due, done, worker_spans, starts) for due, done in self.windows)
        batch_s = tracer.total("serve.workers.batch")
        mutation_s = tracer.total("serve.workers.mutation")
        segments = passes["segment"]
        self.late.sort()
        return {
            "serve.workers.batch_s": batch_s / segments,
            "serve.workers.mutation_s": mutation_s / segments,
            "serve.workers.busy_frac": _ratio(batch_s + mutation_s, self.wall),
            "serve.protocol.encode_s": tracer.total("serve.protocol.encode") / segments,
            "serve.unattributed_frac": _ratio(total_latency - covered, total_latency),
            "serve.cache.hit_rate": _ratio(cache["hits"], cache["hits"] + cache["misses"]),
            "serve.cache.evictions": cache["evictions"] / segments,
            "serve.cache.invalidations": cache["invalidations"] / segments,
            "serve.cache.stale_drops": cache["stale_drops"] / segments,
            "serve.batcher.batches": batching["batches"] / segments,
            "serve.batcher.mean_batch_size": _ratio(batching["requests"], batching["batches"]),
            "serve.batcher.dedup_saved": batching["dedup_saved"] / segments,
            "serve.batcher.queue_high_water": float(kb_after["queue_high_water"]),
            "serve.server.checkpoints": float(kb_after["checkpoints"] - kb_before["checkpoints"]),
            "kb.format.serve_setup_s": self.kb_format_s,
            "load.late_p99_ms": percentile(self.late, 0.99) * 1000,
        }
