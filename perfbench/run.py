"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload offline --seed 1 --seconds 50 --trace 0

Every run measures four phases — compile, answer, update, serve — and
reports every end-to-end metric.  A workload names the phases it runs at
full size: ``offline`` compiles and answers, ``online`` updates and serves;
its other two phases run at sentinel size (see ``perfbench/README.md``).
With ``--trace 0`` the last line holds every end-to-end metric, with
``--trace 1`` every per-layer metric.  Each run writes a report, and a
traced run its spans, to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: the four phases every run measures
PHASES = ("compile", "answer", "update", "serve")
#: each workload's full-size phases; its other phases run at sentinel size
WORKLOADS = {"offline": ("compile", "answer"), "online": ("update", "serve")}
#: each workload's share of the measuring time per phase; the phases whose
#: metrics spread most between runs get the most passes
SHARES = {
    "offline": {"compile": 0.35, "answer": 0.15, "update": 0.05, "serve": 0.45},
    "online": {"compile": 0.15, "answer": 0.1, "update": 0.3, "serve": 0.45},
}
#: stages of the other phases and of compile alternate this many times
ROUNDS = 3
#: set-up runs this many times and reports the median
SETUP_REPEATS = 7
HASH_SEED = "0"

#: every span the traced run records; ``self.<name>.s`` is its mean self
#: time per call
SPAN_NAMES = (
    "logic.parser",
    "rewriting.exbdr",
    "rewriting.skdr",
    "rewriting.hypdr",
    "kb.format.save",
    "kb.format.load",
    "datalog.point",
    "datalog.magic",
    "datalog.session.open",
    "datalog.query",
    "datalog.session.add",
    "datalog.session.retract",
    "serve.workers.batch",
    "serve.workers.mutation",
    "serve.protocol.encode",
)

#: end-to-end metrics of each phase, with their units
PHASE_METRICS = {
    "compile": {"exbdr_s": "s", "skdr_s": "s", "hypdr_s": "s", "rules_out": "count"},
    "answer": {"point_s": "s", "materialize_s": "s", "query_s": "s"},
    "update": {"add_s": "s", "retract_s": "s"},
    "serve": {"request_p50_ms": "ms", "request_p99_ms": "ms"},
}


def layer_unit(name: str) -> str:
    if name.startswith("trace.overhead.") or name.endswith(
        ("frac", "rate", "yield", "share", "regret_max", "regret_geomean", "waste")
    ):
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def median_total(passes: List[List[float]]) -> float:
    """Median over passes of the pass's total time for its fixed set of operations."""
    return statistics.median(sum(times) for times in passes)


def load_program() -> None:
    """Make ``repro`` importable from the checkout's sources, or exit."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


DEFAULT_SEED = 1
#: kept for confirming a claim made on the default seed
HELDOUT_SEED = 7919


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"default {DEFAULT_SEED}; {HELDOUT_SEED} is held out"
    )
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool, full=None, sentinel=None):
    """Set up, measure and verify one workload; return ``(result, report)``."""
    from inputs import FULL, SENTINEL, SENTINEL_SEED, corpus_kbs, corpus_texts, input_properties
    from phases import CLOCK, AnswerPhase, Ledger, ServePhase, UpdatePhase, percentile, schedule
    from repro.datalog.engine import clear_engine_cache
    from repro.datalog.magic import clear_transform_cache
    from repro.logic.interning import clear_intern_caches
    from spans import Tracer

    full = full or FULL
    sentinel = sentinel or SENTINEL
    workdir = OUT / f"work-{workload}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    loop = asyncio.new_event_loop()
    named = WORKLOADS[workload]
    sizes = {name: full if name in named else sentinel for name in PHASES}
    # sentinel phases keep fixed inputs: only the full-size phases' inputs
    # come from the seed, so the sentinels vary by noise alone
    seeds = {name: seed if name in named else SENTINEL_SEED for name in PHASES}
    shares = SHARES[workload]
    phases = [
        AnswerPhase(sizes["answer"], seeds["answer"], ledger, workdir),
        UpdatePhase(sizes["update"], seeds["update"], ledger, workdir),
        ServePhase(sizes["serve"], seeds["serve"], ledger, workdir, loop=loop),
    ]
    serve = phases[2]

    def compile_stage(budget_s: float, traced: bool, verify: bool) -> dict:
        """One stage of the compile phase, run by ``compile_stage.py``.

        Each compile pass clears the process-wide intern tables, which here
        would leave every other phase's next pass to re-intern from cold.
        """
        args = {
            "sizes": dataclasses.asdict(sizes["compile"]),
            "seed": seeds["compile"],
            "seconds": budget_s,
            "traced": traced,
            "verify": verify,
            "workdir": str(workdir),
        }
        completed = subprocess.run(
            [sys.executable, str(HERE / "compile_stage.py"), json.dumps(args)],
            capture_output=True,
            text=True,
            timeout=170,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"compile stage failed:\n{completed.stderr}")
        stage = json.loads(completed.stdout.strip().splitlines()[-1])
        ledger.attempted += stage["attempted"]
        for kind, count in stage["failures"].items():
            ledger.fail(kind, count)
        return stage

    # a traced run splits its time between two measurements, so each gets
    # one stage of each kind
    rounds = 1 if trace else ROUNDS

    def measure(budget_s: float, traced: bool, verify: bool):
        """Alternate stages of the other phases with compile stages."""
        for phase in phases:
            phase.start(Tracer(traced))
        weighted = [(shares[phase.name] * task.share, task) for phase in phases for task in phase.tasks()]
        samples, passes, stages = {}, {}, []
        try:
            for index in range(rounds):
                stage_samples, stage_passes = schedule(budget_s * (1 - shares["compile"]) / rounds, weighted)
                stages.append(
                    compile_stage(budget_s * shares["compile"] / rounds, traced, verify and index == rounds - 1)
                )
                for source in (stage_samples, stages[-1]["samples"]):
                    for name, values in source.items():
                        samples.setdefault(name, []).extend(values)
                for source in (stage_passes, stages[-1]["passes"]):
                    for name, count in source.items():
                        passes[name] = passes.get(name, 0) + count
        finally:
            for phase in phases:
                phase.stop()
        # each percentile is the median over segments of the segment's own:
        # pooled over every segment, a 1000-fact serve phase's p99 moved
        # between 2.3 and 4.7 ms from run to run, with the slowest mutation
        # of a run taking 12-45 ms
        segments = [sorted(segment) for segment in samples.pop("request_ms")]
        values = {name: median_total(times) for name, times in samples.items()}
        values["request_p50_ms"] = statistics.median(percentile(seg, 0.50) for seg in segments)
        values["request_p99_ms"] = statistics.median(percentile(seg, 0.99) for seg in segments)
        values["rules_out"] = float(stages[-1]["rules_out"])
        return values, samples, passes, stages

    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            clear_intern_caches()
            clear_engine_cache()
            clear_transform_cache()
            # as for a pass (see phases.schedule): collections in a set-up
            # scan only what the set-up allocates
            gc.collect()
            gc.freeze()
            CLOCK.begin()
            steps: List[float] = []
            with CLOCK.op(steps):
                corpus_texts(sizes["compile"])
            with CLOCK.op(steps):
                kbs = corpus_kbs(max(sizes["answer"].answer_kbs, sizes["update"].update_kbs))
            for phase in phases:
                with CLOCK.op(steps):
                    phase.setup(kbs)
            scaled, _ = CLOCK.end({"setup_s": steps})
            setup_s.append(sum(scaled["setup_s"]))
            gc.unfreeze()
        if trace:
            metrics, samples, passes, _ = measure(seconds / 2, traced=False, verify=False)
            traced, _, traced_passes, stages = measure(seconds / 2, traced=True, verify=True)
        else:
            metrics, samples, passes, stages = measure(seconds, traced=False, verify=True)
        metrics["setup_s"] = statistics.median(setup_s)
        # read before the oracles run: the chase oracle's memory is not the program's
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            layers = {}
            for phase in phases:
                layers.update(phase.layers(traced_passes))
            layers.update(stages[-1]["layers"])
        for phase in phases:
            phase.verify()
        resilience = serve.resilience()
    finally:
        serve.close()
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": workload,
        "seed": seed,
        "inputs": input_properties(sizes, kbs),
        "setup_s": setup_s,
        "end_to_end": metrics,
        "passes": passes,
        "samples": samples,
        "serve_samples": len(serve.latencies),
        "serve_mutation_ms": serve.mutation_latency_ms(),
        "failures": ledger.failures,
        "resilience": resilience,
    }
    units = {"setup_s": "s", "peak_rss_mb": "MB"}
    for group in PHASE_METRICS.values():
        units.update(group)
    if trace:
        for name, unit in units.items():
            if name in traced and unit in ("s", "ms"):
                layers[f"trace.overhead.{name}"] = traced[name] / metrics[name] - 1
        totals = [phase.tracer.totals() for phase in phases] + [stage["span_totals"] for stage in stages]
        self_s, calls = {}, {}
        for entries in totals:
            for name, entry in entries.items():
                self_s[name] = self_s.get(name, 0.0) + entry["self_s"]
                calls[name] = calls.get(name, 0) + entry["calls"]
        for name in SPAN_NAMES:
            layers[f"self.{name}.s"] = self_s[name] / calls[name] if calls.get(name) else 0.0
        # timed regions not covered by a layer span; serve's requests are
        # attributed separately (serve.unattributed_frac)
        timed = sum(phase.timed_s() for phase in phases[:2]) + sum(stage["timed_s"] for stage in stages)
        covered = sum(
            end - begin
            for phase in phases[:2]
            for _, begin, end, parent, _ in phase.tracer.spans
            if parent is None
        ) + sum(stage["top_level_s"] for stage in stages)
        layers["trace.unattributed_s"] = timed - covered
        layers["trace.unattributed_frac"] = (timed - covered) / timed if timed else 0.0
        for phase in phases:
            (OUT / f"trace-{workload}-{seed}-{phase.name}.json").write_text(json.dumps(phase.tracer.as_json()))
        values = layers
        units = {name: layer_unit(name) for name in layers}
    else:
        values = metrics
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(units)},
    }
    return result, report


def pin_hash_seed() -> None:
    """Re-run this process with string hashing pinned, if it is not yet.

    Set iteration order follows string hashes, and the saturation's work
    follows that order: over five hash seeds ExbDR derived between 9578
    and 11914 clauses on the same corpus.  Pinning the seed makes every run
    do the same work.  ``exec`` replaces this process; no child is left.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    pin_hash_seed()
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True)
    )
    print(json.dumps(report, sort_keys=True), file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
