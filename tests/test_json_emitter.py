"""``cli._json`` writes what ``json.dumps(value, indent=2, sort_keys=True,
default=list)`` writes, byte for byte, without importing json.

json is the oracle here.  The values are built from the parts the CLI's
payloads are made of, and from the ones an emitter gets wrong first:
strings with quotes, backslashes, control, non-ASCII and astral
characters (surrogate pairs under ``ensure_ascii``), ints past 2**64,
bools mixed into int lists (the all-int fast path must not take them),
empty and nested containers, NamedTuples and frozensets (``default=list``).
Outside that domain, a float or a non-str dict key raises TypeError rather
than write other bytes.  Strings alone go through ``cli._string``, which
writes printable ASCII itself and hands the rest to json's C escaper.
"""

import json
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from torusq.cli import _json, _string


class Pair(NamedTuple):
    left: object
    right: object


def _oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, default=list)


TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xa0\u2028é€\ud800\udfff\uffff'),
        st.characters(),
        st.characters(min_codepoint=0x10000),
    ),
    max_size=8,
)
INTS = st.one_of(
    st.integers(-(2**70), -1),
    st.integers(-3, 3),
    st.integers(2**64 - 2, 2**70),
    st.integers(),
)
SCALARS = st.one_of(st.none(), st.booleans(), INTS, TEXT)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
        st.tuples(children, children).map(lambda p: Pair(*p)),
        st.lists(st.one_of(INTS, st.booleans()), max_size=6),
        st.frozensets(INTS, max_size=6),
    )


VALUES = st.recursive(SCALARS, _containers, max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_the_emitter_writes_the_bytes_of_json_dumps(value):
    assert _json(value) == _oracle(value)


@pytest.mark.parametrize("value", [
    "", [], (), {}, frozenset(), [[]], {"": {}}, [True, 1, False, 0],
    [2**64, -(2**64)], ["\U0001f600", "\U0010ffff", "\ud800"],
    {"b": 1, "a": [None, {"c": ()}], "\x00": "\x7f"},
])
def test_edge_values(value):
    assert _json(value) == _oracle(value)


@pytest.mark.parametrize("value", [
    1.5, [0.0], {"a": float("nan")}, {1: "one"}, {"a": {2: None}}, {True: 1},
])
def test_floats_and_non_str_keys_raise(value):
    with pytest.raises(TypeError):
        _json(value)


@settings(max_examples=500, deadline=None)
@given(st.one_of(TEXT, st.text(st.characters(min_codepoint=0x1E, max_codepoint=0x81))))
def test_a_string_is_written_as_json_dumps_writes_it(text):
    assert _string(text) == json.dumps(text)


@pytest.mark.parametrize("value", [1, None, True, 1.5, b"a", ("a",), ["a"]])
def test_a_string_that_is_not_a_str_raises(value):
    with pytest.raises(TypeError):
        _string(value)
