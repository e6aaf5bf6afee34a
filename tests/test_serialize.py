"""Tests for the canonical JSON renderer."""

import math

import numpy as np
import pytest

from blaschke_basis import PreconditionError
from blaschke_basis.serialize import dumps_canonical


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
