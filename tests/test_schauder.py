"""Tests for the expansion construction, remainders and reconstruction."""

import numpy as np
import pytest

from blaschke_basis import (
    AnalyticityError,
    FiniteBlaschkeProduct,
    PreconditionError,
    bergman_norm,
    cauchy_kernel,
    convergence_study,
    expansion_coefficients,
    eval_inside,
    from_taylor,
    kernel_remainder_bound,
    make_sequence,
    partial_sum,
    product_as_function,
    product_eval,
    remainder_closed_form,
    sup_norm,
    triangular_reconstruct,
)
from blaschke_basis.blaschke import blaschke_factor
from blaschke_basis.fnspace import from_samples, unit_circle_grid

M = 2048


def own_product(seq, m):
    return product_as_function(FiniteBlaschkeProduct(seq.points[:m]), M)


class TestCoefficients:
    def test_delta_coefficients_for_basis_element(self):
        seq = make_sequence("harmonic-shifted", 8)
        f = own_product(seq, 3)
        result = expansion_coefficients(f, seq, 8)
        expected = np.zeros(8)
        expected[3] = 1.0
        assert np.max(np.abs(result.coefficients - expected)) <= 1e-10
        assert np.max(result.residual_sup_norms[3:]) <= 1e-10

    def test_constant_is_the_zeroth_element(self):
        seq = make_sequence("harmonic-shifted", 8)
        result = expansion_coefficients(from_taylor([1], M), seq, 8)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.max(np.abs(result.coefficients - expected)) <= 1e-12

    def test_first_coefficient_is_value_at_first_point(self):
        seq = make_sequence("harmonic", 6)
        rng = np.random.default_rng(31)
        f = from_taylor(rng.standard_normal(12) + 1j * rng.standard_normal(12), M)
        result = expansion_coefficients(f, seq, 6)
        assert result.coefficients[0] == pytest.approx(eval_inside(f, seq.points[0]), abs=1e-12)

    def test_kernel_residuals_below_closed_bound(self):
        seq = make_sequence("harmonic-shifted", 40)
        alpha = 0.3
        result = expansion_coefficients(cauchy_kernel(alpha, M), seq, 40)
        for n in range(1, 41):
            # oracle: the bound assembled from direct product multiplication
            b_prev = 1.0 + 0j
            for lam in seq.points[: n - 1]:
                b_prev *= (lam - alpha) / (1 - np.conj(lam) * alpha)
            b_curr = b_prev * (seq.points[n - 1] - alpha) / (1 - np.conj(seq.points[n - 1]) * alpha)
            bound = (abs(b_prev) + abs(b_curr)) / (1 - abs(alpha))
            assert result.residual_sup_norms[n - 1] <= bound + 1e-9
            assert kernel_remainder_bound(seq, alpha, n) == pytest.approx(bound, abs=1e-13)

    def test_identity_gap_is_tiny(self):
        seq = make_sequence("harmonic-shifted", 24)
        rng = np.random.default_rng(32)
        f = from_taylor(rng.standard_normal(20) + 1j * rng.standard_normal(20), M)
        result = expansion_coefficients(f, seq, 24)
        assert result.remainder_identity_gap <= 1e-9 * sup_norm(f)

    def test_rejects_blaschke_sequence(self):
        seq = make_sequence("geometric:0.5", 8)
        with pytest.raises(PreconditionError):
            expansion_coefficients(cauchy_kernel(0.3, M), seq, 8)

    def test_rejects_overlong_prefix(self):
        seq = make_sequence("harmonic-shifted", 4)
        with pytest.raises(PreconditionError):
            expansion_coefficients(from_taylor([1], M), seq, 5)

    def test_full_prefix_is_allowed(self):
        seq = make_sequence("explicit:[0.5,0.7]", 2)
        f = product_as_function(FiniteBlaschkeProduct(np.array([0.5])), M)
        result = expansion_coefficients(f, seq, 2)
        assert np.max(np.abs(result.coefficients - [0.0, 1.0])) <= 1e-10

    def test_exactness_on_span(self):
        seq = make_sequence("harmonic-shifted", 10)
        grid = unit_circle_grid(M)
        rng = np.random.default_rng(33)
        gammas = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        total = np.zeros(M, dtype=complex)
        running = np.ones(M, dtype=complex)
        for k, gamma in enumerate(gammas):
            total += gamma * running
            running = running * blaschke_factor(seq.points[k], grid)
        f = from_samples(total, 1.0, scale_floor=float(np.sum(np.abs(gammas))))
        result = expansion_coefficients(f, seq, 10)
        assert np.max(np.abs(result.coefficients[:5] - gammas)) <= 1e-9
        assert np.max(np.abs(result.coefficients[5:])) <= 1e-9
        assert np.max(result.residual_sup_norms[4:]) <= 1e-9


class TestPartialSumAndRemainder:
    def test_empty_partial_sum_is_zero(self):
        seq = make_sequence("harmonic-shifted", 4)
        result = expansion_coefficients(from_taylor([1], M), seq, 4)
        s0 = partial_sum(result, 0, M)
        assert np.max(np.abs(s0.samples)) == 0.0

    def test_partial_sum_recovers_basis_element(self):
        seq = make_sequence("harmonic-shifted", 8)
        f = own_product(seq, 3)
        result = expansion_coefficients(f, seq, 8)
        s4 = partial_sum(result, 4, M)
        assert np.max(np.abs(s4.samples - f.samples)) <= 1e-9

    def test_last_residual_matches_difference_norm(self):
        seq = make_sequence("harmonic-shifted", 20)
        f = cauchy_kernel(0.3, M)
        result = expansion_coefficients(f, seq, 20)
        s_full = partial_sum(result, 20, M)
        direct = float(np.max(np.abs(f.samples - s_full.samples)))
        assert direct == pytest.approx(result.residual_sup_norms[-1], abs=1e-9)

    def test_partial_sum_of_crowded_products_needs_resolution(self):
        # degree-40 products over points crowding +1 carry coefficient tails
        # that M = 2048 cannot hold to the analyticity tolerance; the bigger
        # grid accepts them and agrees with the coarse one on shared nodes
        seq = make_sequence("harmonic-shifted", 40)
        f = cauchy_kernel(0.3, M)
        result = expansion_coefficients(f, seq, 40)
        with pytest.raises(AnalyticityError):
            partial_sum(result, 40, M)
        s_full = partial_sum(result, 40, 4 * M)
        direct = float(np.max(np.abs(f.samples - s_full.samples[::4])))
        assert direct == pytest.approx(result.residual_sup_norms[-1], abs=1e-9)

    def test_remainder_vanishes_past_basis_element(self):
        seq = make_sequence("harmonic-shifted", 8)
        f = own_product(seq, 2)
        r5 = remainder_closed_form(f, seq, 5)
        assert np.max(np.abs(r5.samples)) <= 1e-10

    def test_remainder_kernel_closed_form(self):
        # independent assembly of the kernel remainder from primitives
        seq = make_sequence("harmonic-shifted", 10)
        alpha = 0.3 + 0.2j
        n = 6
        f = cauchy_kernel(alpha, M)
        lib = remainder_closed_form(f, seq, n)
        grid = unit_circle_grid(M)
        b_nm1 = product_eval(FiniteBlaschkeProduct(seq.points[: n - 1]), alpha)
        b_n = product_eval(FiniteBlaschkeProduct(seq.points[:n]), alpha)
        lam_n = seq.points[n - 1]
        kernel_at = 1.0 / (1.0 - np.conj(alpha) * lam_n)
        product_grid = product_eval(FiniteBlaschkeProduct(seq.points[:n]), grid)
        expected = (
            -np.conj(lam_n) * np.conj(b_nm1) * kernel_at + np.conj(b_n) * f.samples
        ) * product_grid
        assert np.max(np.abs(lib.samples - expected)) <= 1e-10

    def test_one_step_telescoping(self):
        seq = make_sequence("harmonic-shifted", 4)
        rng = np.random.default_rng(34)
        f = from_taylor(rng.standard_normal(8) + 1j * rng.standard_normal(8), M)
        r1 = remainder_closed_form(f, seq, 1)
        c0 = eval_inside(f, seq.points[0])
        assert np.max(np.abs(r1.samples - (f.samples - c0))) <= 1e-10

    def test_remainder_rejects_zero_steps(self):
        seq = make_sequence("harmonic-shifted", 4)
        with pytest.raises(PreconditionError):
            remainder_closed_form(from_taylor([1], M), seq, 0)


class TestTriangularReconstruct:
    def test_constant_function(self):
        seq = make_sequence("harmonic-shifted", 6)
        values = np.ones(6, dtype=complex)
        a = triangular_reconstruct(values, seq)
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.max(np.abs(a - expected)) <= 1e-12

    def test_basis_element_delta(self):
        seq = make_sequence("harmonic-shifted", 5)
        f = own_product(seq, 2)
        values = [eval_inside(f, lam) for lam in seq.points[:5]]
        a = triangular_reconstruct(values, seq)
        expected = np.zeros(5)
        expected[2] = 1.0
        assert np.max(np.abs(a - expected)) <= 1e-10

    def test_cross_validates_expansion_coefficients(self):
        seq = make_sequence("harmonic", 16)
        rng = np.random.default_rng(35)
        f = from_taylor(rng.standard_normal(9) + 1j * rng.standard_normal(9), M)
        result = expansion_coefficients(f, seq, 16)
        values = [eval_inside(f, lam) for lam in seq.points[:16]]
        a = triangular_reconstruct(values, seq)
        assert np.max(np.abs(a - result.coefficients)) <= 1e-9

    def test_near_singular_diagonal_reported(self):
        # points crowding one boundary location shrink the diagonal product
        seq = make_sequence("harmonic-shifted", 40)
        values = np.ones(40, dtype=complex)
        with pytest.raises(PreconditionError):
            triangular_reconstruct(values, seq)


class TestConvergenceStudy:
    def test_basis_element_columns_vanish(self):
        seq = make_sequence("harmonic-shifted", 8)
        f = own_product(seq, 2)
        table = convergence_study(f, seq, 8, ["sup", "hardy:2", "bergman:2:0"])
        for label in ("sup", "hardy:2", "bergman:2:0"):
            assert max(table.columns[label][3:]) <= 1e-10

    def test_norm_columns_dominated_by_sup(self):
        seq = make_sequence("harmonic-shifted", 20)
        f = cauchy_kernel(0.3, M)
        table = convergence_study(f, seq, 20, ["hardy:1", "hardy:2", "bergman:2:0"])
        for label in ("hardy:1", "hardy:2", "bergman:2:0"):
            for x, s in zip(table.columns[label], table.columns["sup"]):
                assert x <= s + 1e-10

    def test_kernel_bound_column_dominates_sup(self):
        seq = make_sequence("harmonic-shifted", 30)
        f = cauchy_kernel(0.3, M)
        table = convergence_study(f, seq, 30, ["sup"], kernel_alpha=0.3)
        for bound, s in zip(table.columns["bound"], table.columns["sup"]):
            assert bound >= s - 1e-9

    @pytest.mark.parametrize("spec", ["harmonic-shifted", "harmonic"])
    def test_bergman_columns_match_standalone_norm(self, spec):
        # the table's ring synthesis against bergman_norm of the remainder
        # built as a function
        seq = make_sequence(spec, 12)
        f = cauchy_kernel(0.3 + 0.2j, M)
        table = convergence_study(f, seq, 12, ["bergman:2:0", "bergman:1:0.5"])
        for n in range(1, 13):
            remainder = remainder_closed_form(f, seq, n)
            for label, p, alpha in (("bergman:2:0", 2, 0.0), ("bergman:1:0.5", 1, 0.5)):
                assert table.columns[label][n] == pytest.approx(
                    bergman_norm(remainder, p, alpha), rel=1e-12
                )

    def test_csv_shape(self):
        seq = make_sequence("harmonic-shifted", 4)
        table = convergence_study(from_taylor([1, 1], M), seq, 4, ["hardy:2"])
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "n,sup,hardy:2"
        assert len(lines) == 6  # header + rows n = 0..4
        assert text.endswith("\n")


def test_expansion_result_serialization():
    seq = make_sequence("harmonic-shifted", 4)
    result = expansion_coefficients(from_taylor([1], M), seq, 4, function_label="poly:1")
    obj = result.to_jsonable()
    assert obj["meta"] == {"sample_count": M, "function": "poly:1"}
    assert len(obj["coefficients"]) == 4
    assert len(obj["residual_sup_norms"]) == 4


def test_degradation_reports_step():
    # the public constructors keep samples and coefficients consistent, which
    # is what makes the chain stable; feed the chain a hand-built function
    # whose samples carry non-analytic content to exercise the guard
    from blaschke_basis import BoundaryFunction

    grid = unit_circle_grid(64)
    samples = 1.0 / (1.0 - 0.5 * np.conj(grid))  # conjugate-kernel: not analytic
    taylor = np.zeros(64, dtype=complex)
    taylor[0] = 1.0
    franken = BoundaryFunction(samples, taylor, 64, 1.0)
    seq = make_sequence("harmonic-shifted", 4)
    with pytest.raises(AnalyticityError, match="step 1"):
        expansion_coefficients(franken, seq, 4)
