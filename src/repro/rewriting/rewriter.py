"""Top-level entry points for computing Datalog rewritings of GTGDs.

``rewrite(tgds, algorithm="hypdr")`` validates the input (every TGD must be
guarded), runs the requested algorithm through the saturation engine, and
returns a :class:`repro.rewriting.base.RewritingResult` whose
``datalog_rules`` are the rewriting ``rew(Σ)``.

The algorithms are the four of Section 5 and Appendix E — ExbDR, SkDR,
HypDR and FullDR — listed in :data:`ALGORITHMS` by lowercase name.
``available_algorithms()`` reports those names; lookups are
case-insensitive.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple, Type

from ..logic.tgd import TGD
from .base import InferenceRule, RewritingResult, RewritingSettings
from .exbdr import ExbDR
from .fulldr import FullDR
from .hypdr import HypDR
from .saturation import Saturation
from .skdr import SkDR

#: ``name -> inference class`` for the algorithms :func:`rewrite` accepts
ALGORITHMS: Dict[str, Type[InferenceRule]] = {
    "exbdr": ExbDR,
    "fulldr": FullDR,
    "hypdr": HypDR,
    "skdr": SkDR,
}


class UnguardedTGDError(ValueError):
    """Raised when an input TGD is not guarded."""


def available_algorithms() -> Tuple[str, ...]:
    """The names accepted by :func:`rewrite`, sorted."""
    return tuple(sorted(ALGORITHMS))


def validate_guardedness(tgds: Iterable[TGD]) -> Tuple[TGD, ...]:
    """Check that every TGD is guarded; return them as a tuple."""
    collected = tuple(tgds)
    for tgd in collected:
        if not tgd.is_guarded:
            raise UnguardedTGDError(f"TGD is not guarded: {tgd}")
    return collected


def make_inference(
    algorithm: str, settings: Optional[RewritingSettings] = None
) -> InferenceRule:
    """Instantiate the inference rule for an algorithm name (any case)."""
    cls = ALGORITHMS.get(algorithm.lower())
    if cls is None:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {available_algorithms()}"
        )
    return cls(settings)


def rewrite(
    tgds: Iterable[TGD],
    algorithm: str = "hypdr",
    settings: Optional[RewritingSettings] = None,
) -> RewritingResult:
    """Compute a Datalog rewriting of a finite set of GTGDs.

    Parameters
    ----------
    tgds:
        The input GTGDs (arbitrary heads; they are brought into head-normal
        form internally).
    algorithm:
        ``"exbdr"``, ``"skdr"``, ``"hypdr"`` (default), or ``"fulldr"``, in
        any case.  See :func:`available_algorithms`.
    settings:
        Optional :class:`RewritingSettings` controlling subsumption, the cheap
        lookahead, timeouts, and clause limits.
    """
    sigma = validate_guardedness(tgds)
    inference = make_inference(algorithm, settings)
    return Saturation(inference, settings).run(sigma)


def rewrite_program(
    tgds: Iterable[TGD],
    algorithm: str = "hypdr",
    settings: Optional[RewritingSettings] = None,
):
    """Like :func:`rewrite` but return the rewriting as a ``DatalogProgram``."""
    return rewrite(tgds, algorithm=algorithm, settings=settings).program()
