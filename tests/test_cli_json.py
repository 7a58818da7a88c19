"""The CLI's JSON writer against the standard library.

``cli._json_text(x)`` must print exactly ``json.dumps(x, indent=2,
sort_keys=True)`` for every payload shape the CLI emits: nested dicts with
string keys, lists and tuples, empty containers, strings with escapes and
non-ASCII characters, ints, None and bools.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from twistbern.cli import _json_text  # noqa: E402

# escapes, control characters, quotes, non-ASCII and astral code points
TEXT = st.text(alphabet=st.sampled_from(
    'az09 "\\/\b\f\n\r\t\x00\x1f\x7f\xe9 €\U0001f600'), max_size=8)
LEAVES = (TEXT | st.integers(-10**30, 10**30) | st.none() | st.booleans())
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=24)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(PAYLOADS)
def test_json_text_is_json_dumps_with_indent_2_and_sorted_keys(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2,
                                             sort_keys=True)


@pytest.mark.parametrize("payload", [
    {}, [], (), "", 0, None, True, False, {"a": {}, "b": [], "c": [[], {}]},
    {"z": 1, "a": [1, "é", None], "m": {"k": (True, -2)}},
])
def test_json_text_edge_payloads(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2,
                                             sort_keys=True)
