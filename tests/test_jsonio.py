"""The one-pass report encoder against the standard library's: ``json`` is
the oracle here, on the payload with every float rounded as reports round
them."""
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanokit import jsonio


def _rounded(x):
    """x with every float rounded by ``round_float``: what json is given."""
    if isinstance(x, float):
        return jsonio.round_float(x)
    if isinstance(x, dict):
        return {k: _rounded(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_rounded(v) for v in x]
    return x


def _oracle(x) -> str:
    return json.dumps(_rounded(x), sort_keys=True, indent=2)


TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é ß", " ", "😀", "\ud800"]),
)
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2e-308, 1e308,
                     1.7976931348623157e308, -1e-7, 123456789012.5]),
)
INTEGERS = st.one_of(
    st.integers(),
    # up to 4,000 digits, below the interpreter's limit on int to str
    st.integers(0, 4000).flatmap(lambda k: st.integers(-10**k, 10**k)),
)
SCALARS = st.one_of(st.none(), st.booleans(), INTEGERS, FLOATS, TEXT)
TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(TREES)
def test_matches_json_dumps(tree):
    assert jsonio.dumps(tree) == _oracle(tree)
    assert jsonio.dumps({"report": tree, "": []}) == _oracle({"report": tree, "": []})


def test_nested_empty_containers():
    tree = {"a": {}, "b": [], "c": [{}, [], ()], "d": {"e": {"f": {}}}}
    assert jsonio.dumps(tree) == _oracle(tree)


def test_unsupported_type_raises_jsons_type_error():
    with pytest.raises(TypeError, match="^Object of type Fraction is not JSON serializable$"):
        jsonio.dumps({"x": [1, Fraction(1, 2)]})
