"""Acceptance criteria: closed-form anchors and property checks, one test per
criterion, each printing its own pass/fail line.

Everything runs at M = 2048 except the orthonormal-system checks (M = 8192).
Criterion 5 asserts the stated convergence threshold verbatim; see the
companion regression test for the measured decay of that configuration.
"""

import math

import numpy as np
import pytest

from blaschke_basis import (
    FiniteBlaschkeProduct,
    blaschke_factor,
    cauchy_kernel,
    convergence_study,
    eval_inside,
    expansion_coefficients,
    from_taylor,
    functional_norm,
    gram_matrix,
    kernel_remainder_bound,
    lacunary_witness,
    dilation_sup_bound_check,
    make_sequence,
    product_as_function,
    product_eval,
    sup_norm,
    toeplitz_factor_apply,
    toeplitz_general_apply,
    toeplitz_product_apply,
    triangular_reconstruct,
)
from blaschke_basis.fnspace import unit_circle_grid
from blaschke_basis.selftest import reference_corpus, reference_lambdas

M = 2048
M_TMW = 8192


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_reconstruction_identity():
    grid = unit_circle_grid(M)
    lambdas = reference_lambdas(20, radius=0.9)
    worst, worst_case = 0.0, ""
    for label, f in reference_corpus(M):
        scale = sup_norm(f)
        value_cache = {lam: eval_inside(f, lam) for lam in lambdas}
        for lam in lambdas:
            k = cauchy_kernel(lam, M)
            b = blaschke_factor(lam, grid)
            t = toeplitz_factor_apply(f, lam)
            residual = np.max(np.abs(
                f.samples
                - (1 - abs(lam) ** 2) * value_cache[lam] * k.samples
                - b * t.samples
            )) / scale
            if residual > worst:
                worst, worst_case = residual, f"{label} at lambda={lam:.3f}"
    report(1, worst <= 1e-10,
           f"reconstruction identity, max residual {worst:.3e} (<= 1e-10), worst {worst_case}")


def test_criterion_2_eigen_relation():
    rng = np.random.default_rng(61)
    alphas = list(reference_lambdas(6, radius=0.9, seed=62)) + [0.9 + 0j]
    worst = 0.0
    for degree in range(1, 9):
        zeros = 0.8 * np.sqrt(rng.uniform(size=degree)) * np.exp(
            2j * np.pi * rng.uniform(size=degree)
        )
        product = FiniteBlaschkeProduct(zeros)
        for alpha in alphas:
            k = cauchy_kernel(alpha, M)
            applied = toeplitz_product_apply(k, product)
            expected = np.conj(product_eval(product, alpha)) * k.samples
            worst = max(worst, float(np.max(np.abs(applied.samples - expected))))
    report(2, worst <= 1e-9, f"eigen-relation, max deviation {worst:.3e} (<= 1e-9)")


def test_criterion_3_basis_exactness():
    seq = make_sequence("harmonic-shifted", 16)
    worst_coeff, worst_resid = 0.0, 0.0
    for m in range(0, 11):
        f = product_as_function(FiniteBlaschkeProduct(seq.points[:m]), M)
        result = expansion_coefficients(f, seq, min(m + 5, 16))
        delta = np.zeros(result.coefficients.size)
        delta[m] = 1.0
        worst_coeff = max(worst_coeff, float(np.max(np.abs(result.coefficients - delta))))
        if m + 1 <= result.residual_sup_norms.size:
            worst_resid = max(worst_resid, float(np.max(result.residual_sup_norms[m:])))
    first = worst_coeff <= 1e-10 and worst_resid <= 1e-10

    spiral = make_sequence("harmonic", 16)
    rng = np.random.default_rng(63)
    worst_cross = 0.0
    for _ in range(4):
        f = from_taylor(rng.standard_normal(9) + 1j * rng.standard_normal(9), M)
        result = expansion_coefficients(f, spiral, 16)
        values = [eval_inside(f, lam) for lam in spiral.points[:16]]
        recovered = triangular_reconstruct(values, spiral)
        worst_cross = max(worst_cross, float(np.max(np.abs(recovered - result.coefficients))))
    report(3, first and worst_cross <= 1e-9,
           f"basis exactness: coeff dev {worst_coeff:.3e} (<= 1e-10), "
           f"tail residual {worst_resid:.3e} (<= 1e-10), "
           f"triangular cross-check {worst_cross:.3e} (<= 1e-9)")


def test_criterion_4_kernel_convergence_bound():
    seq = make_sequence("harmonic-shifted", 61)
    alpha = 0.3
    result = expansion_coefficients(cauchy_kernel(alpha, M), seq, 61)
    bound_ok, cross_ok = True, True
    for n in range(1, 61):
        bound = kernel_remainder_bound(seq, alpha, n)
        # cross-check the bound against the direct telescoping product
        direct_prev, direct_curr = 1.0 + 0j, 1.0 + 0j
        for lam in seq.points[: n - 1]:
            direct_prev *= (lam - alpha) / (1 - np.conj(lam) * alpha)
        direct_curr = direct_prev * (seq.points[n - 1] - alpha) / (
            1 - np.conj(seq.points[n - 1]) * alpha
        )
        direct_bound = (abs(direct_prev) + abs(direct_curr)) / (1 - abs(alpha))
        cross_ok = cross_ok and abs(direct_bound - bound) <= 1e-12 * bound
        bound_ok = bound_ok and result.residual_sup_norms[n - 1] <= bound + 1e-9
    final = float(result.residual_sup_norms[59])
    report(4, bound_ok and cross_ok and final <= 1e-2,
           f"kernel remainder bound holds to n=60 ({bound_ok}), telescoping cross-check "
           f"({cross_ok}), final residual {final:.3e} (<= 1e-2)")


def test_criterion_5_convergence_threshold_as_stated():
    coeffs = [1.0 / math.factorial(k) for k in range(21)]
    seq = make_sequence("harmonic-shifted", 60)
    result = expansion_coefficients(from_taylor(coeffs, M), seq, 60)
    smallest = float(np.min(result.residual_sup_norms))
    at = int(np.argmin(result.residual_sup_norms)) + 1
    report(5, smallest < 1e-6,
           f"exp-truncation residual minimum {smallest:.3e} at n={at} (stated threshold 1e-6; "
           "measured at M=8192 the residual falls from 7.67e-2 at n=10 to 1.65e-2 at n=60, "
           "a local rate near n^-0.86 that steepens to n^-2.2 over n=250..500, and it is "
           "non-monotone beyond its minimum 2.82e-4 at n=559 (3.72e-4 at n=1000), so 1e-6 "
           "is out of reach within 60 terms)")


def test_criterion_5_regression_anchor_measured_decay():
    # the honest frozen anchor for the configuration above: the residual is
    # decreasing and its measured endpoint stays pinned
    coeffs = [1.0 / math.factorial(k) for k in range(21)]
    seq = make_sequence("harmonic-shifted", 60)
    result = expansion_coefficients(from_taylor(coeffs, M), seq, 60)
    residuals = result.residual_sup_norms
    assert residuals[-1] == pytest.approx(0.016467576914607, rel=1e-9)
    assert residuals[-1] < residuals[9] < residuals[4]
    print("ACCEPTANCE 5-anchor: PASS - measured residual at n=60 is "
          f"{residuals[-1]:.12g}, frozen as the regression anchor")


def test_criterion_6_norm_domination():
    seq = make_sequence("harmonic-shifted", 30)
    f = cauchy_kernel(0.3, M)
    table = convergence_study(f, seq, 30, ["hardy:1", "hardy:2", "hardy:4", "bergman:2:0",
                                           "bergman:2:1", "bergman:1:0.5"])
    worst = 0.0
    for label, column in table.columns.items():
        if label == "sup":
            continue
        for x, s in zip(column, table.columns["sup"]):
            worst = max(worst, x - s)
    report(6, worst <= 1e-10,
           f"norm domination: max (norm - sup) over all rows {worst:.3e} (<= 1e-10)")


def test_criterion_7_dilation_norm_bound():
    geo = from_taylor([0.5**k for k in range(M // 2)], M, analytic_radius=2.0)
    zero_sets = {
        1: np.array([0.5]),
        3: np.array([0.5, -0.3, 0.2 + 0.4j]),
        5: np.array([0.5, -0.3, 0.2 + 0.4j, -0.1 - 0.6j, 0.35j]),
    }
    all_hold = True
    quad_ok = True
    for degree, zeros in zero_sets.items():
        for big_r in (1.2, 1.5, 1.9):
            check = dilation_sup_bound_check(geo, FiniteBlaschkeProduct(zeros), big_r)
            all_hold = all_hold and check.holds
            # independent oracle for the right-hand side: midpoint rule on the
            # exact values of 1/(1 - z/2) on the circle of radius R
            theta = 2 * np.pi * (np.arange(4096) + 0.5) / 4096
            ring = big_r * np.exp(1j * theta)
            dense = big_r / (big_r - 1) * float(np.mean(np.abs(1.0 / (1.0 - ring / 2.0))))
            quad_ok = quad_ok and abs(dense - check.rhs) <= 1e-8 * check.rhs
    report(7, all_hold and quad_ok,
           f"dilation norm bound holds for all nine cases ({all_hold}), right-hand side "
           f"cross-checked by independent quadrature ({quad_ok})")


def test_criterion_8_orthonormality_and_functional_norm():
    seq = make_sequence("harmonic", 12)
    gram = gram_matrix(seq, 12, M_TMW)
    gram_dev = float(np.max(np.abs(gram - np.eye(12))))

    shifted = make_sequence("harmonic-shifted", 98)  # |lambda_98| = 0.99
    worst_rel = 0.0
    for n in (1, 10, 40, 75, 98):
        comparison = functional_norm(shifted, n, M_TMW)
        worst_rel = max(worst_rel, abs(comparison.quadrature - comparison.closed_form)
                        / comparison.closed_form)
    report(8, gram_dev <= 1e-8 and worst_rel <= 1e-8,
           f"Gram deviation {gram_dev:.3e} (<= 1e-8), functional-norm relative gap "
           f"{worst_rel:.3e} (<= 1e-8)")


def test_criterion_9_sharpness_growth():
    seq = make_sequence("harmonic-shifted", 32)
    witness = lacunary_witness(seq, 32, exponent=0.25, support="pow2", sample_count=M_TMW)
    assert witness.support == [2, 4, 8, 16, 32]
    worst_rel = 0.0
    for n, c, value in zip(witness.support, witness.coefficients, witness.values):
        expected = c / math.sqrt(1 - abs(seq.points[n - 1]) ** 2)
        worst_rel = max(worst_rel, abs(value - expected) / expected)
    increasing = all(a < b for a, b in zip(witness.values, witness.values[1:]))
    report(9, worst_rel <= 1e-7 and increasing and witness.l2_partial_sum <= 2.0,
           f"witness values match closed form to {worst_rel:.3e} (<= 1e-7), strictly "
           f"increasing ({increasing}), sum of squares {witness.l2_partial_sum:.6f} (<= 2.0)")


def test_criterion_10_cross_algorithm_agreement():
    grid = unit_circle_grid(M)
    lambdas = reference_lambdas(5, radius=0.85, seed=64)
    worst, worst_case = 0.0, ""
    for label, f in reference_corpus(M):
        for lam in lambdas:
            recurrence = toeplitz_factor_apply(f, lam)
            projection = toeplitz_general_apply(f, blaschke_factor(lam, grid))
            gap = float(np.max(np.abs(recurrence.samples - projection.samples)))
            if gap > worst:
                worst, worst_case = gap, label
    report(10, worst <= 1e-9,
           f"recurrence and projection Toeplitz agree to {worst:.3e} (<= 1e-9), "
           f"worst case {worst_case}")
