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


@pytest.mark.parametrize("doc", [
    [1.0, math.nan],
    [math.inf],
    {"pairs": [[0.5, -math.inf]]},
    [np.float64(math.nan), 1.0],
])
def test_non_finite_values_rejected(doc):
    with pytest.raises(PreconditionError, match="non-finite"):
        dumps_canonical(doc)
