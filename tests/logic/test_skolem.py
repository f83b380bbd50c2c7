"""Unit tests for Skolemization."""

from repro.logic.atoms import Atom
from repro.logic.parser import parse_tgd, parse_tgds
from repro.logic.skolem import SkolemFactory, count_existentials, skolemize, skolemize_tgd
from repro.logic.terms import FunctionTerm, Term


def _functional_subterms(term: Term):
    if isinstance(term, FunctionTerm):
        yield term
        for arg in term.args:
            yield from _functional_subterms(arg)


def is_weakly_covering(atom: Atom) -> bool:
    """de Nivelle: every non-ground functional subterm has all atom variables."""
    return all(
        subterm.is_ground or frozenset(subterm.variables()) == atom.variable_set()
        for arg in atom.args
        for subterm in _functional_subterms(arg)
    )


class TestSkolemizeSingleTGD:
    def test_one_rule_per_head_atom(self):
        tgd = parse_tgd("A(?x1, ?x2) -> exists ?y. B(?x1, ?y), C(?x1, ?y).")
        rules = skolemize_tgd(tgd, SkolemFactory())
        assert len(rules) == 2
        predicates = {rule.head.predicate.name for rule in rules}
        assert predicates == {"B", "C"}

    def test_same_existential_gets_same_skolem_term(self):
        """Rules (22)–(23): both heads talk about the same labeled nulls."""
        tgd = parse_tgd("A(?x1, ?x2) -> exists ?y. B(?x1, ?y), C(?x1, ?y).")
        rules = skolemize_tgd(tgd, SkolemFactory())
        terms = []
        for rule in rules:
            for arg in rule.head.args:
                if isinstance(arg, FunctionTerm):
                    terms.append(arg)
        assert len(terms) == 2
        assert terms[0] == terms[1]

    def test_distinct_existentials_get_distinct_symbols(self):
        """Rules (24)–(25): y1 and y2 map to different Skolem symbols."""
        tgd = parse_tgd(
            "A(?x1, ?x2), E(?x1) -> exists ?y1, ?y2. F(?x1, ?y1), F(?y1, ?y2)."
        )
        rules = skolemize_tgd(tgd, SkolemFactory())
        symbols = set()
        for rule in rules:
            for arg in rule.head.args:
                if isinstance(arg, FunctionTerm):
                    symbols.add(arg.symbol)
        assert len(symbols) == 2

    def test_skolem_arguments_are_the_universal_variables(self):
        tgd = parse_tgd("A(?x1, ?x2) -> exists ?y. B(?x1, ?y).")
        (rule,) = skolemize_tgd(tgd, SkolemFactory())
        skolem_term = rule.head.args[1]
        assert isinstance(skolem_term, FunctionTerm)
        assert set(skolem_term.variables()) == tgd.universal_variables

    def test_full_tgd_is_unchanged_modulo_representation(self):
        tgd = parse_tgd("A(?x) -> B(?x).")
        (rule,) = skolemize_tgd(tgd, SkolemFactory())
        assert rule.is_skolem_free
        assert rule.head.predicate.name == "B"

    def test_skolemized_rules_are_guarded(self, running):
        tgds, _ = running
        for rule in skolemize(tgds):
            assert rule.is_guarded

    def test_skolemized_guarded_tgds_are_weakly_covering(self):
        tgds = parse_tgds(
            """
            A(?x1, ?x2) -> exists ?y. B(?x1, ?y), C(?x1, ?y).
            B(?x1, ?x2), D(?x1, ?x2) -> E(?x1).
            """
        )
        for rule in skolemize(tgds):
            assert all(is_weakly_covering(atom) for atom in (*rule.body, rule.head))


class TestSkolemizeSets:
    def test_same_tgd_shares_symbols_across_calls_with_same_factory(self):
        tgd = parse_tgd("A(?x) -> exists ?y. B(?x, ?y).")
        factory = SkolemFactory()
        first = skolemize_tgd(tgd, factory)
        second = skolemize_tgd(tgd, factory)
        assert first == second

    def test_different_tgds_get_different_symbols(self):
        tgds = parse_tgds(
            """
            A(?x) -> exists ?y. B(?x, ?y).
            C(?x) -> exists ?y. B(?x, ?y).
            """
        )
        rules = skolemize(tgds)
        symbols = set()
        for rule in rules:
            for arg in rule.head.args:
                if isinstance(arg, FunctionTerm):
                    symbols.add(arg.symbol)
        assert len(symbols) == 2

    def test_deduplication(self):
        tgds = parse_tgds(
            """
            A(?x) -> B(?x).
            A(?x) -> B(?x).
            """
        )
        assert len(skolemize(tgds)) == 1

    def test_count_existentials(self):
        tgds = parse_tgds(
            """
            A(?x) -> exists ?y1, ?y2. B(?x, ?y1), B(?x, ?y2).
            C(?x) -> D(?x).
            """
        )
        assert count_existentials(tgds) == 2

    def test_entailment_preserved_by_skolemization(self):
        """I, Σ |= F iff I, sk(Σ) |= F — checked via the two chase engines."""
        from repro.chase import certain_base_facts
        from repro.chase.skolem_chase import skolem_chase_base_facts
        from repro.logic import parse_program

        program = parse_program(
            """
            A(?x) -> exists ?y. R(?x, ?y), B(?y).
            R(?x, ?z), B(?z) -> C(?x).
            A(a).
            """
        )
        exact = certain_base_facts(program.instance, program.tgds)
        skolem = skolem_chase_base_facts(program.instance, program.tgds, max_term_depth=3)
        assert skolem == exact
