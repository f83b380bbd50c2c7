"""Property-based differential: demand (magic sets) ≡ materialized answering.

The magic-sets transformation is answer-preserving by construction; these
properties enforce it empirically over random guarded TGD sets and random
instances — including zero-bound queries (where the transformation
degenerates to reachability-restricted full materialization) and sessions
mutated by random add/retract interleavings.  ``auto`` must agree too,
whether or not its demand evaluation spends the work budget and cuts over
to the materialization.  A final property pins the serving-layer contract
the answer cache relies on: a query's cache entry (fingerprint plus encoded
answers) is identical under either strategy.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog import DatalogProgram, QueryOptions, ReasoningSession, materialize
from repro.datalog.magic import demand_answer
from repro.datalog.query import ConjunctiveQuery, evaluate_query
from repro.kb import FactSegments
from repro.kb.format import fact_segments_payload
from repro.logic.atoms import Atom, Predicate
from repro.logic.rules import datalog_tgd_to_rule
from repro.logic.terms import Constant

from .strategies import PREDICATE_POOL, atoms, base_instances, guarded_tgd_sets

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def queries(draw, max_atoms: int = 2):
    """A random existential-free CQ: 1-2 atoms mixing constants and variables.

    Every variable is an answer variable (the class the rewriting approach
    supports), so any mix of bound/free positions — including fully bound
    and fully free — is generated.
    """
    count = draw(st.integers(min_value=1, max_value=max_atoms))
    body = tuple(draw(atoms()) for _ in range(count))
    seen = {}
    for atom in body:
        for variable in atom.variables():
            seen.setdefault(variable, None)
    return ConjunctiveQuery(tuple(seen), body)


def _program(tgds) -> DatalogProgram:
    return DatalogProgram(
        [datalog_tgd_to_rule(tgd) for tgd in tgds if tgd.is_datalog_rule]
    )


class TestDemandEquivalence:
    @RELAXED
    @given(guarded_tgd_sets(max_size=4), base_instances(max_size=5), queries())
    def test_demand_answers_equal_materialized_answers(self, tgds, facts, query):
        program = _program(tgds)
        expected = evaluate_query(query, materialize(program, facts).store)
        assert demand_answer(program, facts, query).answers == expected

    @RELAXED
    @given(guarded_tgd_sets(max_size=4), base_instances(max_size=5), queries())
    def test_cold_session_demand_equals_warm_session_answer(
        self, tgds, facts, query
    ):
        program = _program(tgds)
        cold = ReasoningSession(program, facts, defer_materialization=True)
        demand = cold.answer(query, options=QueryOptions(strategy="demand"))
        assert cold.is_cold  # demand must not have warmed it
        warm = ReasoningSession(program, facts)
        assert demand == warm.answer(query)
        # auto on the same cold start also agrees, whichever way it resolves
        auto = ReasoningSession(program, facts, defer_materialization=True)
        assert auto.answer(query) == demand

    @RELAXED
    @given(
        guarded_tgd_sets(max_size=4),
        base_instances(max_size=6),
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.integers(min_value=0, max_value=63), max_size=4),
            ),
            max_size=5,
        ),
        queries(),
    )
    def test_demand_agrees_after_add_retract_interleavings(
        self, tgds, facts, script, query
    ):
        """Explicit demand on a mutated session reads the surviving base facts."""
        program = _program(tgds)
        pool = sorted(set(facts), key=str)
        if not pool:
            return
        session = ReasoningSession(program, facts)
        for is_add, indices in script:
            batch = [pool[index % len(pool)] for index in indices]
            if is_add:
                session.add_facts(batch)
            else:
                session.retract_facts(batch)
        demand = session.answer(query, options=QueryOptions(strategy="demand"))
        assert demand == session.answer(
            query, options=QueryOptions(strategy="materialized")
        )


#: a predicate outside the random programs' pool: its facts only raise the
#: base fact count, and with it the auto budget
PADDING = Predicate("Padding", 1)


class TestAutoCutover:
    @RELAXED
    @given(
        guarded_tgd_sets(max_size=4),
        base_instances(max_size=5),
        queries(),
        st.integers(min_value=0, max_value=40),
        st.booleans(),
    )
    def test_auto_equals_materialized_whether_or_not_it_cuts_over(
        self, tgds, facts, query, padding, lazy
    ):
        """Random base facts assert IDB predicates too; padding moves the
        budget, so the cutover fires on some examples and not on others.
        It fires exactly when the unbudgeted demand evaluation's work
        exceeds the base fact count."""
        program = _program(tgds)
        facts = tuple(facts) + tuple(
            Atom(PADDING, (Constant(f"p{index}"),)) for index in range(padding)
        )
        expected = ReasoningSession(program, facts).answer(query)

        def source():
            return FactSegments(fact_segments_payload(facts)) if lazy else facts

        auto = ReasoningSession(program, source(), defer_materialization=True)
        planned = auto.resolve_strategy(query)
        assert auto.answer(query) == expected
        stats = auto.demand_stats
        if planned == "demand":
            work = demand_answer(program, facts, query).report.work
            cutover = work > len(set(facts))
            assert stats["cutovers"] == int(cutover)
            assert stats["queries"] == int(not cutover)
            # a demand answer leaves the session cold; a cutover warms it
            assert auto.is_cold != cutover
        else:
            assert stats["queries"] == stats["cutovers"] == 0
            assert not auto.is_cold

        explicit = ReasoningSession(program, source(), defer_materialization=True)
        assert explicit.answer(query, options=QueryOptions(strategy="demand")) == expected
        assert explicit.is_cold
        assert explicit.demand_stats["cutovers"] == 0


class TestCacheEntryStrategyInvariance:
    @RELAXED
    @given(guarded_tgd_sets(max_size=4), base_instances(max_size=5), queries())
    def test_cache_entry_is_identical_under_either_strategy(
        self, tgds, facts, query
    ):
        """One fingerprint, one encoding: the answer cache never needs to know
        which strategy produced an entry."""
        from repro.serve.cache import AnswerCache, query_fingerprint
        from repro.serve.protocol import encode_answers

        program = _program(tgds)
        demand = ReasoningSession(
            program, facts, defer_materialization=True
        ).answer(query, options=QueryOptions(strategy="demand"))
        materialized = ReasoningSession(program, facts).answer(query)
        fingerprint = query_fingerprint(query)
        cache = AnswerCache()
        assert cache.put("kb", fingerprint, 0, encode_answers(demand))
        assert cache.get("kb", fingerprint) == encode_answers(materialized)
