"""The CLI's indented JSON writer against json.dumps(indent=2, sort_keys=True)."""

import decimal
import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup.cli import _json_text


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-7]),
    st.floats().map(np.float64),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-(10**60), max_value=10**60),
    _FLOATS,
    st.text(),  # every code point: controls, non-ASCII and lone surrogates included
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(st.text(max_size=8), inner, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_VALUES)
def test_writer_matches_json_dumps(value):
    assert _json_text(value) == _dumps(value)


class _Colour(enum.IntEnum):
    RED = 1


class _Label(str):
    pass


def _nested(depth: int):
    value = [1.5]
    for level in range(depth):
        value = {"level": level, "inner": value}
    return value


@pytest.mark.parametrize("value", [
    {1: "int key"}, {1.5: 2, None: 3, True: 4}, {(1, 2): "tuple key"}, {"a": 1, 2: "mixed"},
    {"count": np.int64(3)}, [np.bool_(True)], [np.float32(0.5)], [decimal.Decimal("1.5")],
    {1, 2}, [_Colour.RED], {_Label("b"): 1, "a": 2}, [object()], b"bytes",
    _nested(20), _nested(40), 10**5000,
], ids=["int-key", "scalar-keys", "tuple-key", "mixed-keys", "int64", "bool_", "float32",
        "decimal", "set", "int-enum", "str-subclass-key", "object", "bytes", "depth-20",
        "depth-40", "huge-int"])
def test_writer_leaves_the_rest_to_json_dumps(value):
    # bytes, or the same exception with the same message
    try:
        expected = _dumps(value)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as info:
            _json_text(value)
        assert str(info.value) == str(exc)
    else:
        assert _json_text(value) == expected


def test_writer_refuses_a_cycle_as_json_dumps_does():
    loop = {"a": []}
    loop["a"].append(loop)
    with pytest.raises(ValueError, match="Circular reference detected"):
        _json_text(loop)
