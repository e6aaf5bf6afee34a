"""Tests for the canonical JSON renderer."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blaschke_basis import PreconditionError
from blaschke_basis.serialize import _float_rows, _render, dumps_canonical


def test_golden_layout():
    # lists of plain floats take the one-pass branch; everything else,
    # numpy floats included, is rendered item by item, with the same text
    doc = {
        "flags": [True, False],
        "counts": [1, -2, 30],
        "short": [0.5, -0.0, 1e-300, 2.0],
        "long": [0.12345678901234567, -9.876543210987654e-12, 1.0 / 3.0],
        "numpy": (np.float64(0.1), 1.5),
        "pairs": [[0.5, -0.25], [1.0, 2.0]],
        "long_pairs": [[0.12345678901234567, -0.9876543210987654], [1e-5, 3.0]],
        "mixed": [1, 2.5, True, None, "x"],
        "nested": {"empty": [], "k": 3},
    }
    assert dumps_canonical(doc) == (
        "{\n"
        '  "flags": [true, false],\n'
        '  "counts": [1, -2, 30],\n'
        '  "short": [0.5, -0, 1e-300, 2],\n'
        '  "long": [0.123456789012, -9.87654321099e-12, 0.333333333333],\n'
        '  "numpy": [0.1, 1.5],\n'
        '  "pairs": [[0.5, -0.25], [1, 2]],\n'
        '  "long_pairs": [\n'
        "    [0.123456789012, -0.987654321099],\n"
        "    [1e-05, 3]\n"
        "  ],\n"
        '  "mixed": [1, 2.5, true, null, "x"],\n'
        '  "nested": {\n'
        '    "empty": [],\n'
        '    "k": 3\n'
        "  }\n"
        "}\n"
    )


def test_golden_gram_layout():
    # rows of [re, im] pairs, as `tmw gram` writes them; the text is the one
    # the renderer gave before lists of plain floats returned inline at once,
    # and the widest 12-digit floats (19 characters) still share one line
    doc = {
        "k": 3,
        "matrix": [
            [[1.0, 0.0], [-2.0816681711721685e-17, 1e-300], [0.5, -0.0]],
            [[-2.0816681711721685e-17, -1e-300], [0.9999999999999998, -0.0],
             [3.3306690738754696e-16, 2.5]],
            [[0.5, 0.0], [3.3306690738754696e-16, -2.5], [1.0000000000000002, 0.0]],
        ],
        "widest": [-1.2345678901234567e-300, 9.876543210987654e+299, -0.0, 1e-300],
    }
    assert dumps_canonical(doc) == (
        "{\n"
        '  "k": 3,\n'
        '  "matrix": [\n'
        "    [\n"
        "      [1, 0],\n"
        "      [-2.08166817117e-17, 1e-300],\n"
        "      [0.5, -0]\n"
        "    ],\n"
        "    [\n"
        "      [-2.08166817117e-17, -1e-300],\n"
        "      [1, -0],\n"
        "      [3.33066907388e-16, 2.5]\n"
        "    ],\n"
        "    [\n"
        "      [0.5, 0],\n"
        "      [3.33066907388e-16, -2.5],\n"
        "      [1, 0]\n"
        "    ]\n"
        "  ],\n"
        '  "widest": [-1.23456789012e-300, 9.87654321099e+299, -0, 1e-300]\n'
        "}\n"
    )


@pytest.mark.parametrize("doc", [
    [1.0, math.nan],
    [math.inf],
    {"pairs": [[0.5, -math.inf]]},
    [np.float64(math.nan), 1.0],
])
def test_non_finite_values_rejected(doc):
    with pytest.raises(PreconditionError, match="non-finite"):
        dumps_canonical(doc)


# finite floats from every bit pattern, with the edges named: signed zeros,
# subnormals, the largest magnitudes
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1.0 / 3.0]
FINITE = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(0, 2 ** 64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
    .filter(math.isfinite),
)
OTHER = st.one_of(st.integers(-10 ** 20, 10 ** 20), st.booleans(), st.sampled_from([0, 1, -1]),
                  st.sampled_from([math.inf, -math.inf, math.nan]), st.none())


def recursive_rows(rows):
    """Each row as the item-by-item path renders it: one scalar at a time."""
    return ["[" + ", ".join(_render(value, 0) for value in row) + "]" for row in rows]


@settings(max_examples=400, deadline=None)
@given(FINITE)
def test_percent_format_is_the_float_format(value):
    assert "%.12g" % value == format(value, ".12g")


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 8), st.data())
def test_float_rows_match_the_recursive_path(width, count, data):
    # lists of equal-length float lists take one %-format; a value that is
    # not exactly a finite float (ints, bools, inf, nan, None) or rows of
    # unequal length send the list down the item-by-item path, and either
    # way the document's text is the recursive one
    rows = [data.draw(st.lists(FINITE, min_size=width, max_size=width)) for _ in range(count)]
    mutation = data.draw(st.sampled_from(["none", "value", "short row"]))
    if mutation == "value":
        row = data.draw(st.integers(0, count - 1))
        rows[row][data.draw(st.integers(0, width - 1))] = data.draw(OTHER)
    elif mutation == "short row":
        rows[data.draw(st.integers(0, count - 1))].pop()
    fast = _float_rows(rows)
    pure = len({len(row) for row in rows}) == 1 and rows[0] != [] and all(
        type(value) is float and math.isfinite(value) for row in rows for value in row)
    if not pure:
        assert fast is None
    if any(isinstance(value, float) and not math.isfinite(value) for row in rows for value in row):
        with pytest.raises(PreconditionError, match="non-finite"):
            dumps_canonical({"rows": rows})
        return
    expected = recursive_rows(rows)
    if pure:
        assert fast == expected
    inline = all(len(text) <= 24 for text in expected)
    body = ("[" + ", ".join(expected) + "]" if inline
            else "[\n" + ",\n".join("    " + text for text in expected) + "\n  ]")
    assert dumps_canonical({"rows": rows}) == "{\n  \"rows\": " + body + "\n}\n"
