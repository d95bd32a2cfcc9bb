"""Differential tests: the production ``stable_encode`` against the encoder it replaced.

:func:`repro.crypto.hashing.stable_encode` tests the commonest types first,
formats with ``%d`` / ``map``, and remembers the encoding of the last
``.pairs`` tuple it encoded (the vector all ``n`` receivers digest), hit by
identity only.  The parent's stateless encoder is retained beside this file
as ``reference_encoding.py``, and this suite pins the production path to it:
equal bytes on random nested values, with an empty and with a warm slot,
across garbage collection of short-lived objects (an id handed to a new
object must not hit the old entry), alternating between objects (the bound
is one), and for values that ``==`` would alias.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_encoding as reference
from repro.consensus.vector_authenticated import SignedProposal
from repro.core import InputConfiguration
from repro.crypto import Signature, hashing
from repro.crypto.hashing import stable_encode
from repro.sim.events import Envelope

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
    | st.binary(max_size=8)
)
signatures = st.builds(Signature, signer=st.integers(0, 40), tag=st.text("0123456789abcdef", max_size=8))
library_leaves = (
    signatures
    | st.builds(SignedProposal, sender=st.integers(0, 40), value=scalars, signature=signatures)
    | st.dictionaries(st.integers(0, 40), scalars, min_size=1, max_size=5).map(
        InputConfiguration.from_mapping
    )
)
paths = st.lists(st.text(max_size=5), max_size=3).map(tuple)


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(scalars, children, max_size=4)
        | st.builds(Envelope, paths, children)
    )


values = st.recursive(
    scalars | library_leaves | st.frozensets(scalars, max_size=4) | st.sets(scalars, max_size=4),
    _containers,
    max_leaves=12,
)


_EMPTY = (None, b"")


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(hashing, "_LAST_PAIRS", _EMPTY)


@given(values)
@settings(max_examples=200, deadline=None)
def test_cold_and_warm_encodings_match_the_reference(value):
    expected = reference.stable_encode(value)
    hashing._LAST_PAIRS = _EMPTY
    assert stable_encode(value) == expected  # cold
    assert stable_encode(value) == expected  # the last configuration inside is remembered
    assert stable_encode([value, value]) == reference.stable_encode([value, value])


@given(st.lists(values, min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_a_memo_warmed_by_other_values_changes_nothing(batch):
    hashing._LAST_PAIRS = _EMPTY
    for value in batch:
        stable_encode(value)
    for value in reversed(batch):
        assert stable_encode(value) == reference.stable_encode(value)


def test_only_the_last_pairs_tuple_is_remembered():
    stable_encode((1, "a", [2.0, {3: b"x"}], frozenset({4})))
    stable_encode([Envelope(("quad",), ("decide", 1)), Signature(0, "ab")])
    assert hashing._LAST_PAIRS is _EMPTY  # built-ins and stable_fields() objects: stateless
    vector = InputConfiguration.from_mapping({0: "v", 1: "w"})
    other = InputConfiguration.from_mapping({0: "v", 1: "x"})
    for config in (vector, other, vector):  # alternating evicts: the bound is one
        assert stable_encode(config) == reference.stable_encode(config)
        assert hashing._LAST_PAIRS == (config.pairs, reference.stable_encode(config))
        assert hashing._LAST_PAIRS[0] is config.pairs


def test_no_stale_hit_when_an_id_is_reused():
    # Each configuration is dropped right after it is encoded.  Without the
    # slot's strong reference its pairs tuple would be freed there, CPython
    # would hand the block to one of the fresh tuples, and an id-keyed slot
    # would answer for it with the dropped configuration's bytes.
    for index in range(100):
        value = InputConfiguration.from_mapping(dict.fromkeys(range(10), index))
        assert stable_encode(value) == reference.stable_encode(value)
        remembered = id(value.pairs)
        del value
        if index % 10 == 0:
            gc.collect()
        fresh = [InputConfiguration.from_mapping(dict.fromkeys(range(10), (index, k))) for k in range(8)]
        assert remembered not in {id(config.pairs) for config in fresh}
        for config in fresh:
            assert stable_encode(config) == reference.stable_encode(config)


def test_an_entry_for_another_object_is_never_a_hit():
    vector = InputConfiguration.from_mapping({0: "v"})
    equal = InputConfiguration.from_mapping({0: "v"})
    hashing._LAST_PAIRS = (equal.pairs, b"stale")  # equal under ==, not the same object
    assert vector.pairs == equal.pairs
    assert stable_encode(vector) == reference.stable_encode(vector)
    assert hashing._LAST_PAIRS[0] is vector.pairs


@pytest.mark.parametrize(
    "wrap",
    [
        lambda scalar: Envelope(("p",), (scalar,)),
        lambda scalar: InputConfiguration.from_mapping({0: scalar}),
        lambda scalar: SignedProposal(sender=0, value=scalar, signature=Signature(0, "ab")),
    ],
    ids=["envelope", "configuration", "signed-proposal"],
)
def test_equal_but_distinct_scalars_stay_distinct_inside_library_objects(wrap):
    one, true, real = wrap(1), wrap(True), wrap(1.0)
    assert one == true == real  # what a memo keyed on ``==`` would alias
    for _ in range(2):  # cold, then warm
        encodings = [stable_encode(one), stable_encode(true), stable_encode(real)]
        assert len(set(encodings)) == 3
        assert encodings == [reference.stable_encode(item) for item in (one, true, real)]
    assert stable_encode(1) != stable_encode(True) != stable_encode(1.0) != stable_encode(1)
