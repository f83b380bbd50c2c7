"""High-level service-oriented API: compile once, serve many.

The paper's intended deployment mode is to pay for the expensive saturation
of Σ exactly once and then serve arbitrarily many instances, updates, and
queries from the compiled rewriting.  This module is that surface:

**Compile** — :meth:`KnowledgeBase.compile` rewrites the GTGDs with one of
the four algorithms (see :func:`repro.rewriting.available_algorithms`).
Compilation is served from an in-process cache keyed by a canonical
fingerprint of Σ (:mod:`repro.kb.cache`), so recompiling the same Σ — even
with clauses reordered or variables renamed — is free.

**Persist** — :meth:`KnowledgeBase.save` / :meth:`KnowledgeBase.load` move a
compiled knowledge base across processes as a versioned JSON artifact
(:mod:`repro.kb.format`), so a fleet of query servers never re-runs
saturation.

**Serve** — :meth:`KnowledgeBase.session` opens a
:class:`~repro.datalog.session.ReasoningSession` holding a live
materialization: ``add_facts`` propagates deltas semi-naively without
re-materializing, ``retract_facts`` un-asserts base facts by
Backward/Forward maintenance (B/F) without rebuilding,
``answer``/``answer_many`` evaluate queries against the live fixpoint,
``snapshot`` captures an immutable result.

One-shot use::

    from repro import KnowledgeBase, parse_program
    program = parse_program("A(?x) -> B(?x). A(a).")
    kb = KnowledgeBase.compile(program.tgds)
    kb.session(program.instance).certain_base_facts()

Session use::

    kb = KnowledgeBase.load("cim.kb.json")
    session = kb.session(initial_facts)
    session.add_facts(delta)                  # incremental, not from scratch
    session.retract_facts(stale)              # B/F unwind, not a rebuild
    session.answer_many([query1, query2])

**Query strategies** — ``answer_many`` (and every query surface above it)
accepts a keyword-only :class:`QueryOptions`.  The default ``auto`` strategy
answers bound point queries on cold sessions *goal-directedly* through the
magic-sets transformation (:mod:`repro.datalog.magic`), deriving only the
facts the query's constants demand instead of the full fixpoint, until the
demand evaluation has done one unit of work per base fact; past that, the
session materializes and answers from there, so ``auto`` never pays much
more than materializing (though it can pay more than demand would have).
Warm sessions and unbound queries use the live materialization.  Answers
are identical under every strategy — only the work differs::

    kb.answer_many([query], facts)                                   # auto
    kb.answer_many([query], facts, options=QueryOptions("demand"))   # forced

The query surface (:class:`KnowledgeBase`, :class:`QueryOptions`,
:class:`~repro.datalog.query.ConjunctiveQuery`) is re-exported from
:mod:`repro`.

For serving *concurrent* traffic against resident compiled KBs — an asyncio
front end that micro-batches requests, a worker-process pool holding warm
sessions, and a retraction-aware answer cache — see :mod:`repro.serve` and
the ``python -m repro serve`` command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

from .datalog.engine import (
    DatalogEngine,
    MaterializationResult,
    compiled_engine,
)
from .datalog.program import DatalogProgram
from .datalog.query import ConjunctiveQuery, QueryOptions
from .datalog.session import ReasoningSession
from .kb.cache import cached_rewrite, sigma_fingerprint
from .kb.format import FactSegments, read_kb_file_with_segments, write_kb_file
from .logic.atoms import Atom
from .logic.instance import Instance
from .logic.terms import Term
from .logic.tgd import TGD
from .rewriting.base import RewritingResult, RewritingSettings


@dataclass
class KnowledgeBase:
    """A set of GTGDs paired with its Datalog rewriting.

    The rewriting is computed once and reused across base instances, which is
    the intended deployment mode: the expensive saturation depends only on Σ,
    while each query workload only pays for Datalog materialization — or, via
    :meth:`session`, only for the consequences of its deltas.
    """

    tgds: Tuple[TGD, ...]
    rewriting: RewritingResult
    #: lazy per-predicate fact segments from a ``repro-kb/v2`` file, if the
    #: KB was loaded from one that carries them (else ``None``)
    fact_segments: Optional[FactSegments] = field(
        default=None, repr=False, compare=False
    )
    _program: Optional[DatalogProgram] = field(
        default=None, repr=False, compare=False
    )

    @property
    def program(self) -> DatalogProgram:
        """The Datalog rewriting as a program (built once per knowledge base)."""
        if self._program is None:
            self._program = self.rewriting.program()
        return self._program

    @property
    def engine(self) -> DatalogEngine:
        """The shared plan-compiled engine for this knowledge base's program.

        Served from the engine cache keyed by the program's rules, so every
        session, one-shot materialization, and sibling knowledge base over
        the same rewriting reuses one set of compiled hash-join plans.
        """
        return compiled_engine(self.program)

    @property
    def fingerprint(self) -> str:
        """Canonical fingerprint of Σ (clause-order/variable-name invariant)."""
        return sigma_fingerprint(self.tgds)

    @classmethod
    def compile(
        cls,
        tgds: Iterable[TGD],
        algorithm: str = "hypdr",
        settings: Optional[RewritingSettings] = None,
    ) -> "KnowledgeBase":
        """Rewrite the GTGDs with the chosen algorithm.

        Repeated compilations of the same Σ (same algorithm and settings) are
        served from the in-process compile cache.
        """
        tgds = tuple(tgds)
        result, _ = cached_rewrite(tgds, algorithm=algorithm, settings=settings)
        return cls(tgds=tgds, rewriting=result)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(
        self, path: "str | Path", facts: Optional[Iterable[Atom]] = None
    ) -> Path:
        """Persist Σ + ``rew(Σ)`` + statistics as a versioned JSON file.

        ``facts``, when given, are stored as per-predicate ``repro-kb/v2``
        fact segments and come back lazily through :meth:`load` /
        :meth:`load_or_compile` (only the predicates a query demands are
        decoded).
        """
        return write_kb_file(path, self.tgds, self.rewriting, facts)

    @classmethod
    def load(cls, path: "str | Path") -> "KnowledgeBase":
        """Restore a knowledge base saved by :meth:`save`.

        Accepts ``repro-kb/v2`` files and legacy ``repro-kb/v1`` files
        (upgraded in memory).  Raises
        :class:`repro.kb.KnowledgeBaseFormatError` on version or integrity
        mismatches.  Fact segments, if present, are exposed as
        :attr:`fact_segments`.
        """
        tgds, rewriting, segments = read_kb_file_with_segments(path)
        return cls(tgds=tgds, rewriting=rewriting, fact_segments=segments)

    @classmethod
    def load_or_compile(
        cls,
        path: "str | Path",
        algorithm: str = "hypdr",
        settings: Optional[RewritingSettings] = None,
    ) -> "Tuple[KnowledgeBase, Instance | FactSegments]":
        """Accept either a saved KB JSON or a raw GTGD file.

        Returns ``(kb, seed_facts)`` — facts embedded in a GTGD dependency
        file are passed along so callers can seed a session with them.  A
        saved KB JSON yields its lazy v2 fact segments when it has them
        (an iterable of atoms that decodes per predicate on demand) and an
        empty instance otherwise.  This is the loading contract shared by
        the ``serve-batch`` CLI and the long-lived server
        (:mod:`repro.serve`).
        """
        from .kb.format import load_knowledge_base_payload_with_segments
        from .logic.parser import parse_program

        text = Path(path).read_text(encoding="utf-8")
        if text.lstrip().startswith("{"):
            import json

            from .kb.format import KnowledgeBaseFormatError

            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                raise KnowledgeBaseFormatError(
                    f"KB file is not valid JSON: {exc}"
                ) from exc
            tgds, rewriting, segments = load_knowledge_base_payload_with_segments(
                payload
            )
            kb = cls(tgds=tgds, rewriting=rewriting, fact_segments=segments)
            return kb, (segments if segments is not None else Instance())
        program = parse_program(text)
        kb = cls.compile(program.tgds, algorithm=algorithm, settings=settings)
        return kb, program.instance

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def session(
        self,
        instance: Instance | Iterable[Atom] = (),
        *,
        defer_materialization: bool = False,
    ) -> ReasoningSession:
        """Open a long-lived reasoning session on an initial base instance.

        The session keeps the materialization alive and bidirectional:
        ``add_facts`` deltas are propagated semi-naively and
        ``retract_facts`` deltas are unwound by B/F, both instead of
        re-materializing from scratch.  All sessions of this knowledge base
        share one engine, so rule plans are compiled once and reused.

        With ``defer_materialization=True`` the session starts cold — no
        fixpoint is computed until something needs it — which lets the
        ``auto``/``demand`` query strategies answer bound point queries
        goal-directedly without paying for full materialization.  Under
        ``auto``, a demand evaluation that spends one unit of work per base
        fact warms the session instead.
        """
        return ReasoningSession(
            self.program,
            instance,
            engine=self.engine,
            defer_materialization=defer_materialization,
        )

    # ------------------------------------------------------------------
    # one-shot reasoning services (shims over the session layer)
    # ------------------------------------------------------------------
    def materialize(
        self, instance: Instance | Iterable[Atom]
    ) -> MaterializationResult:
        """Compute the fixpoint of the rewriting on a base instance."""
        return self.engine.materialize(instance)

    def entails(self, instance: Instance | Iterable[Atom], fact: Atom) -> bool:
        """Decide ``I, Σ |= F`` for a base fact ``F`` via the rewriting."""
        if not fact.is_base_fact:
            raise ValueError("entailment is defined for base facts only")
        return self.session(instance).entails(fact)

    def answer_many(
        self,
        queries: Sequence[ConjunctiveQuery],
        instance: Instance | Iterable[Atom],
        *,
        options: Optional[QueryOptions] = None,
    ) -> Tuple[FrozenSet[Tuple[Term, ...]], ...]:
        """Batched query answering over a fresh instance.

        The session behind the batch starts cold, so the default ``auto``
        strategy answers bound point queries goal-directedly (magic sets)
        within a work budget; the first materialized-strategy query in the
        batch, or the first ``auto`` demand evaluation that spends its
        budget, warms it once for the rest.  Pass ``options`` to
        force a strategy (see :class:`QueryOptions`).
        """
        session = self.session(instance, defer_materialization=True)
        return session.answer_many(queries, options=options)
