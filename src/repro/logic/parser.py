"""A small text format for dependencies and facts.

The syntax is deliberately simple (inspired by DLGP / existential-rule
formats):

* variables are written with a leading question mark: ``?x``, ``?y1``;
* constants are bare identifiers: ``sw1``, ``a``;
* atoms are ``Pred(arg, ..., arg)``;
* conjunction is written with ``,`` or ``&``;
* a TGD is ``body -> head.`` or ``body -> exists ?y1, ?y2. head.``;
* a fact is a single ground atom followed by ``.``;
* ``%`` and ``#`` start a line comment.

Example::

    % the CIM example from the paper's introduction
    ACEquipment(?x) -> exists ?y. hasTerminal(?x, ?y), ACTerminal(?y).
    ACTerminal(?x) -> Terminal(?x).
    hasTerminal(?x, ?z), Terminal(?z) -> Equipment(?x).
    ACEquipment(sw1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .atoms import Atom, Predicate
from .instance import Instance
from .terms import Constant, Term, Variable
from .tgd import TGD


class ParseError(ValueError):
    """Raised when the parser encounters malformed input."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<punct>[(),.&])|(?P<qvar>\?[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<bad>\S))"
)


@dataclass
class _Token:
    kind: str
    value: str
    line: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("%", 1)[0].split("#", 1)[0]
        pos = 0
        while pos < len(stripped):
            match = _TOKEN_RE.match(stripped, pos)
            if match is None:
                break
            pos = match.end()
            if match.lastgroup == "bad":
                raise ParseError(
                    f"unexpected character {match.group('bad')!r}", lineno
                )
            if match.lastgroup is None:
                continue
            value = match.group(match.lastgroup)
            if value is None or not value.strip():
                continue
            tokens.append(_Token(match.lastgroup, value, lineno))
    return tokens


@dataclass
class ParsedProgram:
    """The result of parsing a program text: dependencies plus a base instance."""

    tgds: Tuple[TGD, ...]
    instance: Instance = field(default_factory=Instance)

    @property
    def facts(self) -> Tuple[Atom, ...]:
        return tuple(self.instance)


class DependencyParser:
    """Recursive-descent parser for the dependency/fact format."""

    def __init__(self) -> None:
        self._predicates: Dict[Tuple[str, int], Predicate] = {}
        self._constants: Dict[str, Constant] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def parse_program(self, text: str) -> ParsedProgram:
        """Parse a whole program (TGDs and facts)."""
        tokens = _tokenize(text)
        tgds: List[TGD] = []
        instance = Instance()
        pos = 0
        while pos < len(tokens):
            statement, pos = self._read_statement(tokens, pos)
            if isinstance(statement, TGD):
                tgds.append(statement)
            else:
                if not statement.is_ground:
                    raise ParseError(f"fact {statement} contains variables")
                instance.add(statement)
        return ParsedProgram(tuple(tgds), instance)

    def parse_tgds(self, text: str) -> Tuple[TGD, ...]:
        """Parse a program and return only its TGDs (facts are rejected)."""
        program = self.parse_program(text)
        if len(program.instance) > 0:
            raise ParseError("expected only TGDs but found facts")
        return program.tgds

    def parse_tgd(self, text: str) -> TGD:
        """Parse exactly one TGD."""
        tgds = self.parse_tgds(text if text.rstrip().endswith(".") else text + ".")
        if len(tgds) != 1:
            raise ParseError(f"expected exactly one TGD, found {len(tgds)}")
        return tgds[0]

    def parse_atom(self, text: str) -> Atom:
        """Parse a single atom (which may contain variables)."""
        tokens = _tokenize(text)
        atom, pos = self._read_atom(tokens, 0)
        if pos != len(tokens):
            raise ParseError("trailing input after atom")
        return atom

    def parse_fact(self, text: str) -> Atom:
        """Parse a single ground fact."""
        atom = self.parse_atom(text.rstrip().rstrip("."))
        if not atom.is_ground:
            raise ParseError(f"fact {atom} contains variables")
        return atom

    def parse_facts(self, text: str) -> Instance:
        """Parse a program consisting only of facts."""
        program = self.parse_program(text)
        if program.tgds:
            raise ParseError("expected only facts but found TGDs")
        return program.instance

    def parse_conjunction(self, text: str) -> Tuple[Atom, ...]:
        """Parse a conjunction of atoms (atoms may contain variables).

        A trailing ``.`` is accepted; used for query bodies.
        """
        tokens = _tokenize(text)
        atoms, pos = self._read_conjunction(tokens, 0)
        if pos < len(tokens) and tokens[pos].value == ".":
            pos += 1
        if pos != len(tokens):
            raise ParseError(
                f"trailing input after conjunction: {tokens[pos].value!r}",
                tokens[pos].line,
            )
        return tuple(atoms)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _predicate(self, name: str, arity: int) -> Predicate:
        key = (name, arity)
        predicate = self._predicates.get(key)
        if predicate is None:
            predicate = Predicate(name, arity)
            self._predicates[key] = predicate
        return predicate

    def _constant(self, name: str) -> Constant:
        constant = self._constants.get(name)
        if constant is None:
            constant = Constant(name)
            self._constants[name] = constant
        return constant

    def _expect(self, tokens: Sequence[_Token], pos: int, value: str) -> int:
        if pos >= len(tokens) or tokens[pos].value != value:
            found = tokens[pos].value if pos < len(tokens) else "end of input"
            line = tokens[pos].line if pos < len(tokens) else None
            raise ParseError(f"expected {value!r} but found {found!r}", line)
        return pos + 1

    def _read_term(self, tokens: Sequence[_Token], pos: int) -> Tuple[Term, int]:
        if pos >= len(tokens):
            raise ParseError("unexpected end of input while reading a term")
        token = tokens[pos]
        if token.kind == "qvar":
            return Variable(token.value[1:]), pos + 1
        if token.kind == "ident":
            return self._constant(token.value), pos + 1
        raise ParseError(f"expected a term but found {token.value!r}", token.line)

    def _read_atom(self, tokens: Sequence[_Token], pos: int) -> Tuple[Atom, int]:
        if pos >= len(tokens) or tokens[pos].kind != "ident":
            found = tokens[pos].value if pos < len(tokens) else "end of input"
            line = tokens[pos].line if pos < len(tokens) else None
            raise ParseError(f"expected a predicate name but found {found!r}", line)
        name = tokens[pos].value
        pos += 1
        args: List[Term] = []
        if pos < len(tokens) and tokens[pos].value == "(":
            pos += 1
            if pos < len(tokens) and tokens[pos].value == ")":
                pos += 1
            else:
                while True:
                    term, pos = self._read_term(tokens, pos)
                    args.append(term)
                    if pos < len(tokens) and tokens[pos].value == ",":
                        pos += 1
                        continue
                    pos = self._expect(tokens, pos, ")")
                    break
        predicate = self._predicate(name, len(args))
        return Atom(predicate, args), pos

    def _read_conjunction(
        self, tokens: Sequence[_Token], pos: int
    ) -> Tuple[List[Atom], int]:
        atoms: List[Atom] = []
        while True:
            atom, pos = self._read_atom(tokens, pos)
            atoms.append(atom)
            if pos < len(tokens) and tokens[pos].value in {",", "&"}:
                pos += 1
                continue
            return atoms, pos

    def _read_statement(self, tokens: Sequence[_Token], pos: int):
        body, pos = self._read_conjunction(tokens, pos)
        if pos < len(tokens) and tokens[pos].kind == "arrow":
            pos += 1
            existential: List[Variable] = []
            if (
                pos < len(tokens)
                and tokens[pos].kind == "ident"
                and tokens[pos].value == "exists"
            ):
                pos += 1
                while True:
                    if pos >= len(tokens) or tokens[pos].kind != "qvar":
                        raise ParseError(
                            "expected a variable in the existential prefix",
                            tokens[pos].line if pos < len(tokens) else None,
                        )
                    existential.append(Variable(tokens[pos].value[1:]))
                    pos += 1
                    if pos < len(tokens) and tokens[pos].value == ",":
                        pos += 1
                        continue
                    pos = self._expect(tokens, pos, ".")
                    break
            head, pos = self._read_conjunction(tokens, pos)
            pos = self._expect(tokens, pos, ".")
            tgd = TGD(tuple(body), tuple(head))
            declared = set(existential)
            if declared and declared != tgd.existential_variables:
                raise ParseError(
                    "declared existential variables "
                    f"{sorted(v.name for v in declared)} do not match the head "
                    f"variables missing from the body "
                    f"{sorted(v.name for v in tgd.existential_variables)}"
                )
            return tgd, pos
        if len(body) != 1:
            raise ParseError("a fact statement must consist of a single atom")
        pos = self._expect(tokens, pos, ".")
        return body[0], pos


# ----------------------------------------------------------------------
# module-level convenience functions
# ----------------------------------------------------------------------
def parse_program(text: str) -> ParsedProgram:
    """Parse a program text with a fresh parser."""
    return DependencyParser().parse_program(text)


def parse_tgds(text: str) -> Tuple[TGD, ...]:
    """Parse TGDs with a fresh parser."""
    return DependencyParser().parse_tgds(text)


def parse_tgd(text: str) -> TGD:
    """Parse a single TGD with a fresh parser."""
    return DependencyParser().parse_tgd(text)


def parse_atom(text: str) -> Atom:
    """Parse a single atom with a fresh parser."""
    return DependencyParser().parse_atom(text)


def parse_fact(text: str) -> Atom:
    """Parse a single ground fact with a fresh parser."""
    return DependencyParser().parse_fact(text)


def parse_facts(text: str) -> Instance:
    """Parse a fact-only program with a fresh parser."""
    return DependencyParser().parse_facts(text)


def parse_conjunction(text: str) -> Tuple[Atom, ...]:
    """Parse a conjunction of atoms with a fresh parser."""
    return DependencyParser().parse_conjunction(text)
