"""Command-line interface.

The CLI mirrors how the paper's system is used in practice: rewrite a file of
GTGDs into a Datalog program, materialize a rewriting over a file of facts,
or check entailment of a single fact.  The dependency/fact syntax is the one
accepted by :mod:`repro.logic.parser`.

The service-style workflow compiles once and serves many batches::

    python -m repro compile deps.gtgd -o cim.kb.json     # saturate + persist
    python -m repro load cim.kb.json                     # inspect a saved KB
    python -m repro serve-batch cim.kb.json data.facts queries.txt \
        --delta day1.facts --retract stale.facts \
        --delta day2.facts                               # incremental session

``--delta`` (add) and ``--retract`` (B/F un-assert) files are applied to
the live session in the order they appear on the command line.  The
queries file may be ``-`` to read from stdin, and ``--json`` emits one
NDJSON result line per query (the wire format of the server).

The long-lived server (:mod:`repro.serve`) keeps knowledge bases resident
and answers concurrent clients over newline-delimited JSON::

    python -m repro serve cim.kb.json --port 7411 --workers 4
    python -m repro serve cim=cim.kb.json grid=grid.gtgd \
        --facts cim=data.facts                           # several KBs

Each positional argument is ``PATH`` or ``NAME=PATH`` (the name clients
address; default: the file stem).  SIGINT/SIGTERM drain in-flight batches
before exiting.

One-shot commands::

    python -m repro rewrite deps.gtgd --algorithm hypdr -o rewriting.dl
    python -m repro materialize deps.gtgd data.facts
    python -m repro entails deps.gtgd data.facts "Equipment(sw2)"
    python -m repro stats deps.gtgd
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from .api import KnowledgeBase
from .datalog.query import parse_query
from .logic.parser import parse_fact, parse_program
from .logic.printer import format_datalog_program, format_fact
from .logic.tgd import bwidth, head_normalize, hwidth, split_full_non_full
from .rewriting.base import RewritingSettings
from .rewriting.rewriter import available_algorithms, validate_guardedness


class _SessionUpdateAction(argparse.Action):
    """Collect ``--delta``/``--retract`` as one ordered list of (op, path).

    Argparse gives each option its own ``append`` list, losing the relative
    order of mixed adds and retractions; sharing one ``dest`` keeps the
    command line's interleaving, which is the order the session applies.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        updates = getattr(namespace, self.dest, None) or []
        operation = "retract" if option_string == "--retract" else "add"
        updates.append((operation, values))
        setattr(namespace, self.dest, updates)


def _read_program(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_program(text)


def _settings_from_args(args: argparse.Namespace) -> RewritingSettings:
    return RewritingSettings(
        use_subsumption=not args.no_subsumption,
        use_lookahead=not args.no_lookahead,
        exact_subsumption=args.exact_subsumption,
        timeout_seconds=args.timeout,
    )


def _add_rewriting_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--algorithm",
        type=str.lower,
        choices=available_algorithms(),
        default="hypdr",
        help="rewriting algorithm (default: hypdr)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, help="time budget in seconds"
    )
    parser.add_argument(
        "--no-subsumption",
        action="store_true",
        help="disable redundancy elimination (Section 7.2 ablation)",
    )
    parser.add_argument(
        "--no-lookahead",
        action="store_true",
        help="disable the cheap lookahead optimization",
    )
    parser.add_argument(
        "--exact-subsumption",
        action="store_true",
        help="use the exact (NP-hard) subsumption check instead of the approximation",
    )


def _command_rewrite(args: argparse.Namespace) -> int:
    program = _read_program(args.dependencies)
    kb = KnowledgeBase.compile(
        program.tgds, algorithm=args.algorithm, settings=_settings_from_args(args)
    )
    stats = kb.rewriting.statistics
    text = format_datalog_program(
        sorted(kb.rewriting.datalog_rules, key=lambda rule: str(rule))
    )
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    print(
        f"# {args.algorithm}: {kb.rewriting.output_size} Datalog rules from "
        f"{stats.input_size} input clauses in {stats.elapsed_seconds:.3f}s "
        f"(derived {stats.derived}, forward-subsumed {stats.discarded_forward})",
        file=sys.stderr,
    )
    return 0 if kb.rewriting.completed else 2


def _command_materialize(args: argparse.Namespace) -> int:
    dependencies = _read_program(args.dependencies)
    data = _read_program(args.facts)
    instance = data.instance
    instance.update(dependencies.instance)
    kb = KnowledgeBase.compile(
        dependencies.tgds, algorithm=args.algorithm, settings=_settings_from_args(args)
    )
    start = time.perf_counter()
    result = kb.materialize(instance)
    elapsed = time.perf_counter() - start
    for fact in sorted(result.facts(), key=str):
        print(format_fact(fact))
    print(
        f"# {len(instance)} input facts -> {len(result)} facts in {elapsed:.3f}s "
        f"({result.rounds} rounds)",
        file=sys.stderr,
    )
    return 0


def _command_entails(args: argparse.Namespace) -> int:
    dependencies = _read_program(args.dependencies)
    data = _read_program(args.facts)
    instance = data.instance
    instance.update(dependencies.instance)
    fact = parse_fact(args.fact)
    kb = KnowledgeBase.compile(
        dependencies.tgds, algorithm=args.algorithm, settings=_settings_from_args(args)
    )
    entailed = kb.entails(instance, fact)
    print("entailed" if entailed else "not entailed")
    return 0 if entailed else 1


def _command_compile(args: argparse.Namespace) -> int:
    """Saturate a GTGD file and persist the compiled knowledge base.

    Facts written in the file travel with the KB as its seed facts, so the
    compiled file serves the answers the GTGD file would.
    """
    program = _read_program(args.dependencies)
    kb = KnowledgeBase.compile(
        program.tgds, algorithm=args.algorithm, settings=_settings_from_args(args)
    )
    kb.save(args.output, program.instance or None)
    stats = kb.rewriting.statistics
    print(
        f"# compiled {stats.input_size} input clauses with {args.algorithm} into "
        f"{kb.rewriting.output_size} Datalog rules in {stats.elapsed_seconds:.3f}s; "
        f"saved to {args.output} (fingerprint {kb.fingerprint[:12]})",
        file=sys.stderr,
    )
    return 0 if kb.rewriting.completed else 2


def _command_load(args: argparse.Namespace) -> int:
    """Inspect a saved knowledge base: summary and (optionally) its rules."""
    kb = KnowledgeBase.load(args.knowledge_base)
    stats = kb.rewriting.statistics
    print(f"algorithm:      {kb.rewriting.algorithm}")
    print(f"input TGDs:     {len(kb.tgds)}")
    print(f"datalog rules:  {kb.rewriting.output_size}")
    print(f"completed:      {kb.rewriting.completed}")
    print(f"compile time:   {stats.elapsed_seconds:.3f}s")
    print(f"fingerprint:    {kb.fingerprint}")
    if args.rules:
        print(
            format_datalog_program(
                sorted(kb.rewriting.datalog_rules, key=lambda rule: str(rule))
            )
        )
    return 0


def _read_queries(path: str) -> List:
    """Parse one query per line; ``-`` reads from stdin (pipelines)."""
    if path == "-":
        text = sys.stdin.read()
    else:
        text = Path(path).read_text(encoding="utf-8")
    queries = []
    for line in text.splitlines():
        stripped = line.split("%", 1)[0].split("#", 1)[0].strip()
        if stripped:
            queries.append(parse_query(stripped))
    return queries


def _command_serve_batch(args: argparse.Namespace) -> int:
    """Open a session, apply delta files incrementally, answer a query batch."""
    kb, seed_facts = KnowledgeBase.load_or_compile(
        args.knowledge_base,
        algorithm=args.algorithm,
        settings=_settings_from_args(args),
    )
    if not kb.rewriting.completed:
        raise ValueError(
            "the rewriting is incomplete (timeout or clause limit hit during "
            "compile); serving it would silently drop certain answers — "
            "recompile without limits"
        )
    instance = parse_program(Path(args.facts).read_text(encoding="utf-8")).instance
    instance.update(seed_facts)
    # parse every query before paying for the session and the deltas
    queries = _read_queries(args.queries)
    # demand/auto strategies want a cold session so bound point queries can
    # go goal-directed; the materialized strategy pays the fixpoint up front
    strategy = getattr(args, "strategy", "auto") or "auto"
    defer = strategy != "materialized"
    start = time.perf_counter()
    session = kb.session(instance, defer_materialization=defer)
    setup = time.perf_counter() - start
    if session.is_cold:
        print(
            f"# session: {len(kb.program)} rules, {len(instance)} base facts, "
            f"cold (strategy={strategy}) in {setup:.3f}s",
            file=sys.stderr,
        )
    else:
        print(
            f"# session: {len(kb.program)} rules, {len(instance)} base facts -> "
            f"{len(session)} facts in {setup:.3f}s",
            file=sys.stderr,
        )
    for operation, path in args.updates or ():
        delta = parse_program(Path(path).read_text(encoding="utf-8")).instance
        start = time.perf_counter()
        if operation == "retract":
            retraction = session.retract_facts(delta)
            elapsed = time.perf_counter() - start
            print(
                f"# retract {path}: -{retraction.retracted_facts} facts "
                f"({retraction.ignored_facts} ignored), "
                f"{retraction.overdeleted} overdeleted / "
                f"{retraction.rederived} rederived, net -{retraction.net_removed} "
                f"in {retraction.rounds} rounds ({elapsed:.3f}s)",
                file=sys.stderr,
            )
        else:
            update = session.add_facts(delta)
            elapsed = time.perf_counter() - start
            print(
                f"# delta {path}: +{update.added_facts} facts, "
                f"{update.derived_count} derived in {update.rounds} rounds "
                f"({elapsed:.3f}s)",
                file=sys.stderr,
            )
    from .datalog.query import QueryOptions

    start = time.perf_counter()
    answer_sets = session.answer_many(queries, options=QueryOptions(strategy=strategy))
    elapsed = time.perf_counter() - start
    if args.json:
        from .serve.protocol import encode_message, query_result

        for query, answers in zip(queries, answer_sets):
            sys.stdout.write(
                encode_message(query_result(str(query), answers)).decode("utf-8")
            )
    else:
        for query, answers in zip(queries, answer_sets):
            print(f"{query}")
            for row in sorted(answers, key=str):
                print("  " + ", ".join(str(term) for term in row))
            if not answers:
                print("  (no answers)")
    if session.is_cold:
        demand = session.demand_stats
        print(
            f"# answered {len(queries)} queries goal-directed "
            f"({demand['queries']} demand evaluations, "
            f"{demand['predicates_touched']}/{demand['predicates_total']} "
            f"predicates touched) in {elapsed:.3f}s",
            file=sys.stderr,
        )
    else:
        print(
            f"# answered {len(queries)} queries over {len(session)} facts "
            f"in {elapsed:.3f}s",
            file=sys.stderr,
        )
    return 0


def _parse_named_path(spec: str, default_name: Optional[str] = None):
    """Split a ``NAME=PATH`` spec; a bare ``PATH`` names itself by file stem."""
    if "=" in spec:
        name, _, path = spec.partition("=")
        return name, path
    return default_name or Path(spec).stem, spec


async def _serve_until_signalled(server, host: str, port: int) -> int:
    """Run the long-lived server until SIGINT/SIGTERM, then drain."""
    import signal

    await server.start()
    await server.warm()
    bound_host, bound_port = await server.start_tcp(host, port)
    print(
        f"# serving on {bound_host}:{bound_port} "
        "(newline-delimited JSON; Ctrl-C drains and exits)",
        file=sys.stderr,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            # platforms without loop signal handlers fall back to KeyboardInterrupt
            pass
    try:
        await stop.wait()
    except KeyboardInterrupt:
        pass
    print("# draining in-flight batches ...", file=sys.stderr)
    await server.shutdown()
    print("# server stopped", file=sys.stderr)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """Boot the long-lived reasoning server (see :mod:`repro.serve`)."""
    from .logic.instance import Instance
    from .serve.server import ReasoningServer, ServedKB

    # bind() would reject it only inside the event loop, as a traceback
    if not 0 <= args.port <= 65535:
        raise ValueError(f"port must be 0-65535, got {args.port}")
    loaded = {}
    order = []
    for spec in args.knowledge_base:
        name, path = _parse_named_path(spec)
        if name in loaded:
            raise ValueError(f"duplicate knowledge base name {name!r}")
        kb, seed_facts = KnowledgeBase.load_or_compile(
            path, algorithm=args.algorithm, settings=_settings_from_args(args)
        )
        seed = Instance()
        seed.update(seed_facts)
        loaded[name] = (kb, seed)
        order.append(name)
    default = order[0] if len(order) == 1 else None
    for spec in args.facts or ():
        name, path = _parse_named_path(spec, default_name=default)
        if name not in loaded:
            raise ValueError(
                f"--facts {spec!r} names no loaded knowledge base "
                f"(loaded: {', '.join(order)}); use NAME=PATH"
            )
        loaded[name][1].update(
            parse_program(Path(path).read_text(encoding="utf-8")).instance
        )
    options = {}
    if args.default_deadline_ms is not None:
        # 0 = no deadline; the server models that as None
        options["default_deadline_ms"] = args.default_deadline_ms or None
    if args.max_queue_depth is not None:
        options["max_queue_depth"] = args.max_queue_depth or None
    if args.checkpoint_threshold is not None:
        options["checkpoint_threshold"] = args.checkpoint_threshold
    server = ReasoningServer(
        [ServedKB(name, *loaded[name]) for name in order],
        workers=args.workers,
        cache_size=args.cache_size,
        max_batch_size=args.max_batch_size,
        **options,
    )
    return asyncio.run(_serve_until_signalled(server, args.host, args.port))


def _command_stats(args: argparse.Namespace) -> int:
    program = _read_program(args.dependencies)
    validate_guardedness(program.tgds)
    normalized = head_normalize(program.tgds)
    full, non_full = split_full_non_full(normalized)
    print(f"dependencies:      {len(program.tgds)}")
    print(f"head-normal form:  {len(normalized)}")
    print(f"full TGDs:         {len(full)}")
    print(f"non-full TGDs:     {len(non_full)}")
    print(f"body width:        {bwidth(normalized)}")
    print(f"head width:        {hwidth(normalized)}")
    predicates = {
        atom.predicate
        for tgd in normalized
        for atom in tgd.body + tgd.head
    }
    print(f"relations:         {len(predicates)}")
    print(f"maximum arity:     {max((p.arity for p in predicates), default=0)}")
    print(f"facts in file:     {len(program.instance)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Datalog rewriting of guarded TGDs (VLDB 2022 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    rewrite_parser = subparsers.add_parser(
        "rewrite", help="rewrite a file of GTGDs into a Datalog program"
    )
    rewrite_parser.add_argument("dependencies", help="file containing the GTGDs")
    rewrite_parser.add_argument("-o", "--output", help="write the Datalog program here")
    _add_rewriting_options(rewrite_parser)
    rewrite_parser.set_defaults(handler=_command_rewrite)

    materialize_parser = subparsers.add_parser(
        "materialize", help="materialize the rewriting over a file of facts"
    )
    materialize_parser.add_argument("dependencies")
    materialize_parser.add_argument("facts")
    _add_rewriting_options(materialize_parser)
    materialize_parser.set_defaults(handler=_command_materialize)

    entails_parser = subparsers.add_parser(
        "entails", help="check whether a base fact is entailed"
    )
    entails_parser.add_argument("dependencies")
    entails_parser.add_argument("facts")
    entails_parser.add_argument("fact", help='the fact to check, e.g. "Equipment(sw2)"')
    _add_rewriting_options(entails_parser)
    entails_parser.set_defaults(handler=_command_entails)

    stats_parser = subparsers.add_parser(
        "stats", help="print structural statistics of a GTGD file"
    )
    stats_parser.add_argument("dependencies")
    stats_parser.set_defaults(handler=_command_stats)

    compile_parser = subparsers.add_parser(
        "compile", help="saturate a GTGD file and save the compiled knowledge base"
    )
    compile_parser.add_argument("dependencies", help="file containing the GTGDs")
    compile_parser.add_argument(
        "-o",
        "--output",
        required=True,
        help="where to write the KB JSON (repro-kb/v2 format)",
    )
    _add_rewriting_options(compile_parser)
    compile_parser.set_defaults(handler=_command_compile)

    load_parser = subparsers.add_parser(
        "load", help="inspect a knowledge base saved by 'compile'"
    )
    load_parser.add_argument("knowledge_base", help="a saved KB JSON file")
    load_parser.add_argument(
        "--rules", action="store_true", help="also print the Datalog rewriting"
    )
    load_parser.set_defaults(handler=_command_load)

    serve_parser = subparsers.add_parser(
        "serve-batch",
        help="open a reasoning session, apply deltas incrementally, answer a "
        "batch of queries",
    )
    serve_parser.add_argument(
        "knowledge_base",
        help="a saved KB JSON (from 'compile') or a GTGD file (compiled on the fly)",
    )
    serve_parser.add_argument("facts", help="file with the initial base facts")
    serve_parser.add_argument(
        "queries", help="file with one conjunctive query per line ('-' for stdin)"
    )
    serve_parser.add_argument(
        "--json",
        action="store_true",
        help="emit one NDJSON result line per query (the server's wire format) "
        "instead of the human-readable listing",
    )
    serve_parser.add_argument(
        "--delta",
        action=_SessionUpdateAction,
        dest="updates",
        metavar="FACTS_FILE",
        help="fact file added incrementally to the live session (repeatable; "
        "applied in command-line order, interleaved with --retract)",
    )
    serve_parser.add_argument(
        "--retract",
        action=_SessionUpdateAction,
        dest="updates",
        metavar="FACTS_FILE",
        help="fact file of base facts to un-assert via B/F (repeatable; "
        "applied in command-line order, interleaved with --delta)",
    )
    serve_parser.add_argument(
        "--strategy",
        choices=("auto", "materialized", "demand"),
        default="auto",
        help="query evaluation strategy: 'materialized' pays the full "
        "fixpoint up front, 'demand' answers goal-directedly via magic "
        "sets, 'auto' (default) goes goal-directed for bound queries on a "
        "cold session until that spends one unit of work per base fact, "
        "then materializes (answers are identical under every strategy)",
    )
    _add_rewriting_options(serve_parser)
    serve_parser.set_defaults(handler=_command_serve_batch)

    server_parser = subparsers.add_parser(
        "serve",
        help="run the long-lived reasoning server (newline-delimited JSON "
        "over TCP; see repro.serve)",
    )
    server_parser.add_argument(
        "knowledge_base",
        nargs="+",
        metavar="KB",
        help="a saved KB JSON or GTGD file to serve, as PATH or NAME=PATH "
        "(default name: the file stem)",
    )
    server_parser.add_argument(
        "--facts",
        action="append",
        metavar="[NAME=]FACTS_FILE",
        help="seed base facts for a served KB (repeatable; NAME may be "
        "omitted when serving a single KB)",
    )
    server_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    server_parser.add_argument(
        "--port",
        type=int,
        default=7411,
        help="TCP port (default: 7411; 0 picks a free port)",
    )
    server_parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="process-pool workers holding warm sessions; 0 (default) runs "
        "the reasoning inline on a thread",
    )
    server_parser.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="answer-cache capacity in entries (default: 1024)",
    )
    server_parser.add_argument(
        "--max-batch-size",
        type=int,
        default=128,
        help="cap on queries grouped into one micro-batch (default: 128)",
    )
    server_parser.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="server-side deadline applied to requests that carry no "
        "deadline_ms of their own (default: 30000; 0 disables deadlines)",
    )
    server_parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="per-KB admission bound; requests past it are shed with a "
        "structured 'overloaded' error (default: 1024; 0 removes the bound)",
    )
    server_parser.add_argument(
        "--checkpoint-threshold",
        type=int,
        default=None,
        metavar="N",
        help="op-log length at which the server snapshots surviving base "
        "facts and truncates the log (default: 32)",
    )
    _add_rewriting_options(server_parser)
    server_parser.set_defaults(handler=_command_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; returns its exit status.

    Every input error ends here as ``error: <message>`` on stderr with exit
    status 2, never a traceback.  Input errors are :class:`ValueError`
    (a syntax error, an unguarded TGD, an invalid query, a malformed KB
    file, a bad setting or server option) and :class:`OSError` (a missing
    or unreadable file).  Exit status 1 stays ``entails``' "not entailed".
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
