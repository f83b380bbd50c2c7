"""Hypothesis fuzzer for the ``repro-kb/v2`` fact-segment reader.

One segment of a saved ``fact_segments`` block gets random ``rows`` and a
random ``count``: term IDs in and out of the term table's range, negative
IDs, and tokens that are not integers.  Decoding every segment must then
either return exactly what a model decoder returns or raise
:class:`~repro.kb.KnowledgeBaseFormatError`.  Any other exception, and any
fact the file does not encode, fails the property.
"""

import copy

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kb import FactSegments, KnowledgeBaseFormatError
from repro.kb.format import fact_segments_payload
from repro.logic.atoms import Atom, Predicate
from repro.logic.parser import parse_facts
from repro.logic.terms import Constant

FACTS = parse_facts(
    """
    ACEquipment(sw1). ACEquipment(sw2). hasTerminal(sw1, trm1).
    ACTerminal(trm1). Alarm().
    """
)
PAYLOAD = fact_segments_payload(FACTS)
TERMS = PAYLOAD["terms"]
KEYS = sorted(PAYLOAD["predicates"])

NOT_INTEGERS = ("x", "1.5", "-", "0x1", "1e3", "NaN")


def model_decode(predicate, count, tokens):
    """The facts a segment encodes, or ``None`` if it is malformed."""
    if count < 0 or (predicate.arity == 0 and count > 1):
        return None
    if any(isinstance(token, str) for token in tokens):
        return None
    if len(tokens) != predicate.arity * count:
        return None
    if not all(0 <= term_id < len(TERMS) for term_id in tokens):
        return None
    if predicate.arity == 0:
        return (Atom(predicate, ()),) * count
    return tuple(
        Atom(
            predicate,
            tuple(Constant(TERMS[term_id]) for term_id in tokens[base : base + predicate.arity]),
        )
        for base in range(0, len(tokens), predicate.arity)
    )


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    key=st.sampled_from(KEYS),
    tokens=st.lists(
        st.one_of(
            st.integers(min_value=-3, max_value=len(TERMS) + 2),
            st.sampled_from(NOT_INTEGERS),
        ),
        max_size=6,
    ),
    count=st.integers(min_value=-2, max_value=5),
)
def test_corrupt_segment_decodes_to_the_model_or_a_format_error(key, tokens, count):
    payload = copy.deepcopy(PAYLOAD)
    block = payload["predicates"][key]
    block["rows"] = " ".join(map(str, tokens))
    block["count"] = count
    name, _, arity = key.rpartition("/")
    predicate = Predicate(name, int(arity))
    expected = model_decode(predicate, count, tokens)
    try:
        segments = FactSegments(payload)
        decoded = {p: segments.relation(p) for p in segments.predicates()}
    except KnowledgeBaseFormatError:
        assert expected is None, f"rejected a well-formed segment {block!r}"
        return
    assert expected is not None, f"decoded a malformed segment {block!r}"
    assert decoded[predicate] == expected
    for other, atoms in decoded.items():
        if other != predicate:
            assert set(atoms) == {fact for fact in FACTS if fact.predicate == other}
    assert len(segments) == sum(len(atoms) for atoms in decoded.values())
