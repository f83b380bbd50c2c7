"""repro — a reproduction of "Rewriting the Infinite Chase" (VLDB 2022).

The package implements Datalog rewriting of guarded tuple-generating
dependencies (GTGDs) together with every substrate the paper relies on: a
first-order logic layer, unification, the tree-like and one-pass chase, a
semi-naive Datalog engine, clause indexing, a small description-logic front
end, and workload generators for the paper's evaluation.

Quickstart::

    from repro import KnowledgeBase, parse_program

    program = parse_program('''
        ACEquipment(?x) -> exists ?y. hasTerminal(?x, ?y), ACTerminal(?y).
        ACTerminal(?x) -> Terminal(?x).
        hasTerminal(?x, ?z), Terminal(?z) -> Equipment(?x).
        ACEquipment(sw1). ACEquipment(sw2).
    ''')
    kb = KnowledgeBase.compile(program.tgds, algorithm="hypdr")
    print(kb.session(program.instance).certain_base_facts())

Query answering goes through :meth:`KnowledgeBase.answer_many` (or a
session's ``answer``/``answer_many``), optionally tuned per call with
:class:`QueryOptions` — the default ``auto`` strategy answers bound point
queries goal-directedly via the magic-sets transformation::

    from repro import QueryOptions, parse_query
    kb.answer_many([parse_query("Equipment(sw1)")], program.instance)
"""

from .api import KnowledgeBase
from .datalog import (
    ConjunctiveQuery,
    DatalogProgram,
    DeltaUpdateResult,
    FactStore,
    MaterializationResult,
    QueryOptions,
    ReasoningSession,
    RetractionResult,
    evaluate_query,
    materialize,
    parse_query,
)
from .logic import (
    TGD,
    Atom,
    Constant,
    Instance,
    Predicate,
    Rule,
    Substitution,
    Variable,
    parse_atom,
    parse_fact,
    parse_facts,
    parse_program,
    parse_tgd,
    parse_tgds,
)
from .rewriting import (
    AlgorithmCapabilities,
    RewritingResult,
    RewritingSettings,
    available_algorithms,
    register_algorithm,
    rewrite,
    rewrite_program,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmCapabilities",
    "Atom",
    "ConjunctiveQuery",
    "Constant",
    "DatalogProgram",
    "DeltaUpdateResult",
    "FactStore",
    "Instance",
    "KnowledgeBase",
    "MaterializationResult",
    "Predicate",
    "QueryOptions",
    "ReasoningSession",
    "RetractionResult",
    "RewritingResult",
    "RewritingSettings",
    "Rule",
    "Substitution",
    "TGD",
    "Variable",
    "available_algorithms",
    "evaluate_query",
    "materialize",
    "parse_atom",
    "parse_fact",
    "parse_facts",
    "parse_program",
    "parse_query",
    "parse_tgd",
    "parse_tgds",
    "register_algorithm",
    "rewrite",
    "rewrite_program",
    "__version__",
]
