"""Property tests of the Toeplitz chain against the 40-digit oracle, and a
Bergman column against the exact norm from Taylor coefficients.

Random points with |lambda| <= 0.95, random polynomials of degree <= 64 and
chains up to N = 200. Gaps are relative to the input's coefficient 2-norm
(the operators have norm <= 1 on H^2, so every iterate stays below it). Each
bound sits about three times above the worst gap measured over 120 random
chains of the same shape (30 for the kernel), stated next to it with the
worst gap of the examples drawn here. Examples are capped and derandomized:
one oracle chain at the largest size takes about 0.35 s.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from blaschke_basis import (cauchy_kernel, convergence_study, expansion_coefficients, from_taylor,
                            iterates, make_sequence)

M = 256

#: |h_{n-1}(lambda_n) - oracle| / ||a||_2; measured 4.2e-15 (5.0e-16 here).
EVALUATION_BOUND = 1.2e-14
#: max_k |h_n[k] - oracle| / ||a||_2; measured 1.3e-15 (3.5e-16 here).
COEFFICIENT_BOUND = 4e-15
#: max_n |c_n - oracle| / ||k_alpha||_2 for kernel expansions; measured 9.0e-16
#: (3.3e-16 here).
KERNEL_BOUND = 3e-15


def disk_points(radius):
    return st.builds(lambda r, t: r * cmath.exp(1j * t),
                     st.floats(0.0, radius), st.floats(0.0, 2.0 * math.pi))


def sized_lists(elements, smallest, largest):
    # draw the size first, so the examples spread over the whole range
    return st.integers(smallest, largest).flatmap(
        lambda size: st.lists(elements, min_size=size, max_size=size))


coefficients = sized_lists(st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), 1, 65)
chains = sized_lists(disk_points(0.95), 1, 200)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(coeffs=coefficients, points=chains)
def test_chain_matches_oracle(coeffs, points):
    scale = float(np.linalg.norm(coeffs))
    degree = len(coeffs) - 1
    values, chain = oracle.deflation_chain(coeffs, points)
    for (value, _, h), ref_value, ref in zip(iterates(from_taylor(coeffs, M), points),
                                             values, chain, strict=True):
        assert abs(value - complex(ref_value)) <= EVALUATION_BOUND * scale
        ref = np.array([complex(c) for c in ref])
        assert np.max(np.abs(h.taylor[: degree + 1] - ref)) <= COEFFICIENT_BOUND * scale


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(alpha=disk_points(0.9), n=st.integers(1, 200),
       spec=st.sampled_from(["harmonic", "harmonic-shifted", "harmonic:1.7"]))
def test_kernel_coefficients_match_eigen_relation(alpha, n, spec):
    seq = make_sequence(spec, n)
    result = expansion_coefficients(cauchy_kernel(alpha, 2048), seq, n)
    ref = np.array([complex(c) for c in oracle.kernel_coefficients(alpha, seq.points[:n])])
    gap = np.max(np.abs(result.coefficients - ref))
    assert gap <= KERNEL_BOUND / math.sqrt(1.0 - abs(alpha) ** 2)


@pytest.fixture(scope="module")
def bergman_table():
    f, seq = cauchy_kernel(0.3, 2048), make_sequence("harmonic-shifted", 60)
    points = seq.points[:60]
    remainders = {n: (shift, h.taylor, points[:n])
                  for n, (_, shift, h) in enumerate(iterates(f, points), 1) if n in (1, 10, 30, 60)}
    return convergence_study(f, seq, 60, ["bergman:2:0:1024"]), remainders


@pytest.mark.parametrize("n", [1, 10, 30, 60])
def test_bergman_column_matches_taylor_norm(n, bergman_table):
    # the contract's b.csv input (kernel:0.3 along harmonic-shifted, M = 2048)
    # with a 1024-node radial rule against the exact A^2_0 norm of R_n from
    # its Taylor coefficients; worst relative gap measured 3.3e-16 (n = 1)
    table, remainders = bergman_table
    shift, taylor, zeros = remainders[n]
    expected = oracle.bergman_norm_from_taylor(oracle.remainder_taylor(taylor, shift, zeros), 0.0)
    assert table.columns["bergman:2:0"][n] == pytest.approx(expected, rel=1e-14, abs=0.0)

