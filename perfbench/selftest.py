"""Tiny-scale self-test of the benchmark.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* every workload runs at tiny size, untraced and traced, and reports every
  metric ``BENCHMARK.json`` names, with its unit and no failed operation;
* each phase's oracle reports a failed operation when fed a deliberately
  wrong answer, so the checker itself is tested;
* the benchmark exits non-zero, printing no result, in a directory that
  holds the benchmark but not the program.

Exits 0 when every check passes.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from inputs import TINY, corpus_kbs  # noqa: E402
from phases import AnswerPhase, CompilePhase, Ledger, ServePhase, UpdatePhase, digest  # noqa: E402
from spans import Tracer  # noqa: E402

from repro import Atom, Constant, Predicate  # noqa: E402

#: a fact no generated input contains
BOGUS = Atom(Predicate("selftest_bogus", 1), (Constant("selftest_bogus"),))

failures = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def check_metrics() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {metric["name"]: metric["unit"] for metric in declared[group]}
        for workload in run.WORKLOADS:
            result, _ = run.run(workload, seed=1, seconds=0.5, trace=trace, full=TINY, sentinel=TINY)
            reported = {name: entry["unit"] for name, entry in result["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            expect(reported == wanted, f"{label}: every {group} metric, with its unit")
            expect(
                all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values()),
                f"{label}: every value is a number",
            )
            expect(result["failed"] == 0 and result["attempted"] > 0, f"{label}: no failed operation")


class WrongSession:
    """A session whose certain base facts carry one fact too many."""

    def __init__(self, session) -> None:
        self._session = session

    def certain_base_facts(self):
        return self._session.certain_base_facts() | {BOGUS}


class WrongKB:
    def __init__(self, kb) -> None:
        self._kb = kb

    def session(self, instance):
        return WrongSession(self._kb.session(instance))


def corrupt_compile(phase: CompilePhase) -> None:
    phase.loaded["hypdr"][0] = WrongKB(phase.loaded["hypdr"][0])


def corrupt_answer(phase: AnswerPhase) -> None:
    phase.point_answers[0] = phase.point_answers[0] | {(Constant("selftest_bogus"),)}


def corrupt_update(phase: UpdatePhase) -> None:
    phase.final_facts[0] = phase.final_facts[0] | {BOGUS}


def corrupt_serve(phase: ServePhase) -> None:
    text, generation, _ = phase.observed[0]
    phase.observed[0] = (text, generation, digest([["selftest_bogus"]]))


def check_oracles() -> None:
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    loop = asyncio.new_event_loop()
    kbs = corpus_kbs(TINY.answer_kbs)
    cases = (
        (CompilePhase, corrupt_compile),
        (AnswerPhase, corrupt_answer),
        (UpdatePhase, corrupt_update),
        (ServePhase, corrupt_serve),
    )
    try:
        for cls, corrupt in cases:
            for wrong in (False, True):
                ledger = Ledger()
                extra = {"loop": loop} if cls is ServePhase else {}
                phase = cls(TINY, 1, ledger, workdir, **extra)
                phase.setup(kbs)
                phase.start(Tracer(False))
                for task in phase.tasks():
                    task.run()
                phase.stop()
                if wrong:
                    corrupt(phase)
                phase.verify()
                phase.close()
                if wrong:
                    expect(ledger.failed >= 1, f"{cls.name}: a wrong answer is a failed operation")
                else:
                    expect(ledger.failed == 0, f"{cls.name}: right answers pass the oracle")
    finally:
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()
        shutil.rmtree(workdir, ignore_errors=True)


def check_without_program() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "offline", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
        expect(
            completed.returncode != 0 and not completed.stdout.strip(),
            "without the program: non-zero exit and no result",
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_oracles()
    check_metrics()
    check_without_program()
    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
