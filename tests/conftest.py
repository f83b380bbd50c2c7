"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import warnings

import pytest

from repro.logic import Atom, Constant, Predicate, Variable, parse_program
from repro.workloads.families import cim_example, running_example


def pytest_runtest_makereport(item, call):
    """Load hypothesis' patch writer after a failing ``@given`` call.

    On a failure, hypothesis' pytest plugin imports
    ``hypothesis.extra._patching`` while it builds the teardown report.
    That module imports libcst, and libcst's import raises a third-party
    ``DeprecationWarning`` (``mypy_extensions.TypedDict is deprecated``).
    Under ``-W error::DeprecationWarning`` the warning becomes an
    INTERNALERROR that ends the session instead of reporting the failure.
    Importing the module here first, with deprecations ignored for that
    import alone, keeps every other ``DeprecationWarning`` an error.
    """
    if (
        call.when == "call"
        and call.excinfo is not None
        and hasattr(getattr(item, "obj", None), "hypothesis")
    ):
        with warnings.catch_warnings(), contextlib.suppress(ImportError):
            warnings.simplefilter("ignore", DeprecationWarning)
            import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def x() -> Variable:
    return Variable("x")


@pytest.fixture
def y() -> Variable:
    return Variable("y")


@pytest.fixture
def predicates():
    """A small vocabulary of predicates used across tests."""
    return {
        "A": Predicate("A", 2),
        "B": Predicate("B", 2),
        "C": Predicate("C", 2),
        "D": Predicate("D", 2),
        "E": Predicate("E", 1),
        "P": Predicate("P", 1),
        "R": Predicate("R", 2),
        "S": Predicate("S", 3),
    }


@pytest.fixture
def running():
    """Example 4.3: the GTGDs (8)–(13) and the base instance {A(a, b)}."""
    return running_example()


@pytest.fixture
def cim():
    """Example 1.1: the CIM GTGDs (1)–(4) and facts (5)–(6)."""
    return cim_example()


@pytest.fixture
def running_program_text() -> str:
    """The running example in the textual dependency format."""
    return """
    A(?x1, ?x2) -> exists ?y. B(?x1, ?y), C(?x1, ?y).
    C(?x1, ?x2) -> D(?x1, ?x2).
    B(?x1, ?x2), D(?x1, ?x2) -> E(?x1).
    A(?x1, ?x2), E(?x1) -> exists ?y1, ?y2. F(?x1, ?y1), F(?y1, ?y2).
    E(?x1), F(?x1, ?x2) -> G(?x1).
    B(?x1, ?x2), G(?x1) -> H(?x1).
    A(a, b).
    """


@pytest.fixture
def parsed_running(running_program_text):
    return parse_program(running_program_text)
