"""One stage of the compile phase, in a process of its own.

Every compile pass clears the process-wide intern tables.  Run beside the
other phases, that would leave each of their next passes to re-intern from
cold, so ``run.py`` runs compile stages here and reads one JSON object
from the last line of standard output::

    python3 perfbench/compile_stage.py '{"sizes": {...}, "seed": 1,
        "seconds": 3.0, "traced": false, "verify": false, "workdir": "..."}'
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
from phases import CompilePhase, Ledger, schedule  # noqa: E402
from spans import Tracer  # noqa: E402


def stage(sizes: dict, seed: int, seconds: float, traced: bool, verify: bool, workdir: str) -> dict:
    ledger = Ledger()
    phase = CompilePhase(inputs.Sizes(**sizes), seed, ledger, Path(workdir))
    phase.setup(())
    tracer = Tracer(traced)
    phase.start(tracer)
    try:
        samples, passes = schedule(seconds, [(task.share, task) for task in phase.tasks()])
    finally:
        phase.stop()
    if verify:
        phase.verify()
    totals = tracer.totals()
    return {
        "samples": samples,
        "passes": passes,
        "rules_out": phase.total_rules(),
        "layers": phase.layers(passes) if traced else {},
        "span_totals": totals,
        "timed_s": phase.timed_s(),
        "top_level_s": sum(end - start for _, start, end, parent, _ in tracer.spans if parent is None),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
    }


if __name__ == "__main__":
    print(json.dumps(stage(**json.loads(sys.argv[1]))))
