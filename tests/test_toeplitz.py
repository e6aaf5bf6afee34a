"""Tests for the conjugate-analytic Toeplitz operators."""

import warnings

import numpy as np
import pytest

from blaschke_basis import (
    FiniteBlaschkeProduct,
    PreconditionError,
    blaschke_factor,
    cauchy_kernel,
    dilate,
    from_taylor,
    factor_sup_bound_check,
    dilation_sup_bound_check,
    iterates,
    product_as_function,
    product_eval,
    toeplitz_general_apply,
    toeplitz_product_apply,
    zero_extraction_step,
)
from blaschke_basis.blaschke import make_sequence
from blaschke_basis.fnspace import BoundaryFunction, deflate, eval_inside, unit_circle_grid
from blaschke_basis.selftest import reference_corpus, reference_lambdas

M = 2048


def full_width_step(taylor, lam):
    """The step over all M/2 coefficients, dead tail included: the reference
    the live-prefix step must match bit for bit."""
    b = deflate(taylor, lam)
    t = np.conj(lam) * b
    t[:-1] -= b[1:]
    return b[0], t


def random_polynomial(degree):
    rng = np.random.default_rng(31 + degree)
    return from_taylor(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1), M)


def contract_file_function():
    """The `file:` input of tools/cli_contract.py: 40 complex coefficients
    0.6^k + 0.3i (-0.5)^k on M = 4096, radius 1.6."""
    k = np.arange(40)
    pairs = np.stack([0.6**k, 0.3 * (-0.5) ** k], axis=1).tolist()
    return BoundaryFunction.from_jsonable(
        {"sample_count": 4096, "analytic_radius": 1.6, "taylor": pairs})


class TestFactorApply:
    def test_annihilates_matching_kernel(self):
        lam = 0.55 - 0.2j
        k = cauchy_kernel(lam, M)
        _, out = zero_extraction_step(k, lam)
        assert np.max(np.abs(out.samples)) <= 1e-10

    def test_constant_maps_to_conjugate_point(self):
        lam = 0.3 + 0.4j
        one = from_taylor([1], M)
        _, out = zero_extraction_step(one, lam)
        assert np.allclose(out.samples, np.conj(lam), atol=1e-13)
        # coefficient-level oracle: T applied to a_0 = 1 leaves only bin 0
        assert out.taylor[0] == pytest.approx(np.conj(lam), abs=1e-13)
        assert np.max(np.abs(out.taylor[1:])) <= 1e-13

    def test_backward_shift_at_origin(self):
        # with lam = 0 the factor is -z and T is minus the backward shift:
        # a_k -> -a_{k+1}, checked against a direct coefficient-shift oracle
        rng = np.random.default_rng(21)
        coeffs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        f = from_taylor(coeffs, M)
        _, out = zero_extraction_step(f, 0.0)
        expected = np.zeros(10, dtype=complex)
        expected[:9] = -coeffs[1:]
        assert np.max(np.abs(out.taylor[:10] - expected)) <= 1e-13

    def test_eigen_relation_single_factor(self):
        lam, alpha = 0.5, 0.2 - 0.6j
        k = cauchy_kernel(alpha, M)
        _, out = zero_extraction_step(k, lam)
        eigenvalue = np.conj(blaschke_factor(lam, alpha))
        assert np.max(np.abs(out.samples - eigenvalue * k.samples)) <= 1e-9

    def test_eval_inside_is_the_step_value(self):
        # the chain's last evaluation, taken without the iterate, must be the
        # step's own value bit for bit
        rng = np.random.default_rng(29)
        f = from_taylor(rng.standard_normal(40) + 1j * rng.standard_normal(40), M)
        for lam in (0.0, 0.3 - 0.5j, 0.97, -0.6 + 0.1j):
            assert eval_inside(f, lam) == zero_extraction_step(f, lam)[0]

    def test_radius_propagation(self):
        f = cauchy_kernel(0.5, M)  # radius 2
        _, out = zero_extraction_step(f, 0.8)
        assert out.analytic_radius == pytest.approx(1.25)


class TestIterates:
    def test_steps_are_single_factor_applications(self):
        rng = np.random.default_rng(23)
        f = from_taylor(rng.standard_normal(12) + 1j * rng.standard_normal(12), M)
        points = reference_lambdas(6, radius=0.8)
        polyval = np.polynomial.polynomial.polyval
        previous = f
        for lam, (value, h) in zip(points, iterates(f, points), strict=True):
            # the deflation against numpy's Horner loop, an independent route,
            # within the bound measured in test_fnspace's zero-padded Horner test
            scale = np.sum(np.abs(previous.taylor) * abs(lam) ** np.arange(previous.taylor.size))
            assert abs(value - polyval(lam, previous.taylor)) <= 3.5e-16 * scale
            assert np.array_equal(h.samples, zero_extraction_step(previous, lam)[1].samples)
            previous = h
        assert np.array_equal(
            toeplitz_product_apply(f, FiniteBlaschkeProduct(points)).samples, previous.samples
        )

    @pytest.mark.parametrize("degree", [0, 1, 7, 64])
    def test_polynomial_degree_is_kept_exactly(self, degree):
        # the deflation maps degree d to degree d: the tail beyond a_d stays
        # exactly zero along the whole chain, with no roundoff leaking into it
        rng = np.random.default_rng(24 + degree)
        f = from_taylor(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1), M)
        points = reference_lambdas(40, radius=0.95)
        for _, h in iterates(f, points):
            assert not np.any(h.taylor[degree + 1:])


class TestLiveLength:
    """The chain deflates and copies only the live prefix, the coefficients
    up to the last nonzero one; the dead tail is exact zeros."""

    @pytest.mark.parametrize("build, full_band", [
        (lambda: cauchy_kernel(0.3, 8192), False),
        *[(lambda d=d: random_polynomial(d), False) for d in (0, 1, 5, 17, 40, 64)],
        (contract_file_function, False),
        (lambda: cauchy_kernel(0.95, 256), True),
    ], ids=["kernel:0.3@8192", *[f"poly-degree-{d}" for d in (0, 1, 5, 17, 40, 64)],
            "contract-file", "full-band-kernel:0.95@256"])
    def test_steps_bitwise_equal_full_width_deflation(self, build, full_band):
        f = build()
        assert (f.live_length == f.taylor.size) == full_band
        points = reference_lambdas(60, radius=0.95)
        previous = f
        for lam, (value, h) in zip(points, iterates(f, points), strict=True):
            expected_value, expected = full_width_step(previous.taylor, lam)
            assert value == expected_value
            assert np.array_equal(h.taylor, expected)
            previous = h

    def test_live_length_never_grows_along_the_chain(self):
        f = cauchy_kernel(0.3, 8192)
        live = f.live_length
        assert 0 < live < f.taylor.size
        for _, h in iterates(f, make_sequence("harmonic:1.7", 500).points):
            assert h.live_length <= live
            # the recorded length is exact: zeros past it, nonzero at its end
            assert not np.any(h.taylor[h.live_length:])
            assert h.taylor[h.live_length - 1] != 0
            live = h.live_length

    def test_degree_drops_are_recorded(self):
        # at lambda = 0 the step is minus the backward shift, so the degree
        # falls by one per step until only the zero function is left
        f = from_taylor([1.0, 2.0, 3.0], M)
        lengths = [h.live_length for _, h in iterates(f, [0.0, 0.0, 0.0])]
        assert lengths == [2, 1, 1]
        _, h = list(iterates(f, [0.0, 0.0, 0.0]))[-1]
        assert not np.any(h.taylor)


class TestProductApply:
    def test_empty_product_is_identity(self):
        f = cauchy_kernel(0.3, M)
        assert toeplitz_product_apply(f, FiniteBlaschkeProduct()) is f

    def test_annihilates_own_product_to_constant_one(self):
        zeros = np.array([0.4, -0.2 + 0.3j, 0.1 - 0.5j])
        product = FiniteBlaschkeProduct(zeros)
        f = product_as_function(product, M)
        out = toeplitz_product_apply(f, product)
        assert np.max(np.abs(out.samples - 1.0)) <= 1e-10

    def test_quotient_oracle_partial_strip(self):
        # stripping two of four zeros leaves the product over the remainder
        zeros = np.array([0.4, -0.2 + 0.3j, 0.1 - 0.5j, 0.6])
        f = product_as_function(FiniteBlaschkeProduct(zeros), M)
        out = toeplitz_product_apply(f, FiniteBlaschkeProduct(zeros[:2]))
        remaining = product_eval(FiniteBlaschkeProduct(zeros[2:]), unit_circle_grid(M))
        assert np.max(np.abs(out.samples - remaining)) <= 1e-10

    def test_multiplicative_eigen_relation(self):
        product = FiniteBlaschkeProduct(np.array([0.3, -0.4]))
        alpha = 0.25 + 0.55j
        k = cauchy_kernel(alpha, M)
        out = toeplitz_product_apply(k, product)
        eigenvalue = np.conj(product_eval(product, alpha))
        assert np.max(np.abs(out.samples - eigenvalue * k.samples)) <= 1e-9


class TestGeneralApply:
    def test_identity_symbol(self):
        f = cauchy_kernel(0.4, M)
        out = toeplitz_general_apply(f, np.ones(M))
        assert np.max(np.abs(out.samples - f.samples)) <= 1e-12

    def test_shift_symbol_on_cube(self):
        f = from_taylor([0, 0, 0, 1], M)
        out = toeplitz_general_apply(f, unit_circle_grid(M))
        expected = from_taylor([0, 0, 1], M)
        assert np.max(np.abs(out.samples - expected.samples)) <= 1e-13

    def test_cross_validates_factor_recurrence(self):
        lam = 0.45 + 0.3j
        grid = unit_circle_grid(M)
        for label, f in reference_corpus(M)[:12]:
            via_projection = toeplitz_general_apply(f, blaschke_factor(lam, grid))
            _, via_recurrence = zero_extraction_step(f, lam)
            gap = np.max(np.abs(via_projection.samples - via_recurrence.samples))
            assert gap <= 1e-9, f"{label}: {gap}"

    def test_mismatched_symbol_length(self):
        with pytest.raises(PreconditionError):
            toeplitz_general_apply(from_taylor([1], M), np.ones(M // 2))

    def test_nan_symbol_rejected(self):
        # the aliasing guard reads a NaN spectrum as no energy, so it used to
        # return a NaN function with no warning; the projection rejects it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="sample 0 is"):
                toeplitz_general_apply(from_taylor([1, 2], 16), np.full(16, np.nan))

    def test_aliasing_warning(self):
        # a symbol with full-bandwidth content wraps the product spectrum
        rng = np.random.default_rng(22)
        noisy = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        f = from_taylor(rng.standard_normal(M // 2), M)
        with pytest.warns(RuntimeWarning):
            toeplitz_general_apply(f, noisy)


class TestReconstructionIdentity:
    def test_composition_commutes(self):
        f = cauchy_kernel(0.7, M)
        a, b = 0.2 + 0.5j, -0.6
        fwd = toeplitz_product_apply(f, FiniteBlaschkeProduct([a, b]))
        rev = toeplitz_product_apply(f, FiniteBlaschkeProduct([b, a]))
        assert np.max(np.abs(fwd.samples - rev.samples)) <= 1e-10


class TestDilationSupBound:
    def test_constant_function(self):
        one = from_taylor([1], M)
        report = dilation_sup_bound_check(one, FiniteBlaschkeProduct(np.array([0.5, -0.3])), 2.0)
        assert report.holds
        # T applied to 1 telescopes to the product of conjugated zeros
        assert report.lhs == pytest.approx(abs(0.5 * -0.3), abs=1e-12)
        assert report.rhs == pytest.approx(2.0, abs=1e-12)

    def test_geometric_function(self):
        f = from_taylor([0.5**k for k in range(M // 2)], M, analytic_radius=2.0)
        report = dilation_sup_bound_check(f, FiniteBlaschkeProduct(np.array([0.5])), 1.5)
        assert report.holds

    def test_identity_function_rhs_quadrature_oracle(self):
        z = from_taylor([0, 1], M)
        report = dilation_sup_bound_check(z, FiniteBlaschkeProduct(), 1.2)
        assert report.lhs == pytest.approx(1.0, abs=1e-12)
        # independent oracle: ||f_R||_{H^1} for f = z is the mean of |1.2 z| = 1.2
        assert report.rhs == pytest.approx(6.0 * 1.2, abs=1e-10)
        assert report.holds

    def test_dilated_h1_norm_against_dense_quadrature(self):
        # cross-check the library's right-hand side against a trapezoid rule
        # at a different resolution applied to exact function values
        f = from_taylor([0.5**k for k in range(M // 2)], M, analytic_radius=2.0)
        big_r = 1.5
        theta = 2 * np.pi * np.arange(3000) / 3000
        ring = big_r * np.exp(1j * theta)
        dense = np.mean(np.abs(1.0 / (1.0 - ring / 2)))
        lib = dilation_sup_bound_check(f, FiniteBlaschkeProduct(), big_r)
        assert lib.rhs == pytest.approx(big_r / (big_r - 1) * dense, rel=1e-9)

    def test_rejects_radius_out_of_range(self):
        f = from_taylor([0.5**k for k in range(M // 2)], M, analytic_radius=2.0)
        with pytest.raises(PreconditionError):
            dilation_sup_bound_check(f, FiniteBlaschkeProduct(), 2.5)
        with pytest.raises(PreconditionError):
            dilation_sup_bound_check(f, FiniteBlaschkeProduct(), 1.0)


class TestFactorSupBound:
    def test_zero_function(self):
        zero = from_taylor([0], M)
        report = factor_sup_bound_check(zero, 0.4)
        assert report.lhs == 0.0 and report.rhs == 0.0 and report.holds

    def test_large_kernel(self):
        report = factor_sup_bound_check(cauchy_kernel(0.9, M), 0.5)
        assert report.holds
        assert report.grid_equality_gap <= 1e-12 * report.rhs

    def test_blaschke_product_input(self):
        f = product_as_function(FiniteBlaschkeProduct(np.array([0.2, -0.5, 0.3j])), M)
        report = factor_sup_bound_check(f, 0.45)
        assert report.holds
        assert report.lhs <= 3.0 + 1e-12


def test_dilate_then_apply_matches_apply_then_dilate_for_entire_functions():
    # sanity on the holomorphic-extension claim: for a polynomial the
    # operator result extends, and dilation commutes with the closed form
    rng = np.random.default_rng(23)
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    f = from_taylor(coeffs, M)
    lam = 0.3
    _, out = zero_extraction_step(f, lam)
    assert out.analytic_radius > 3.0
    dilated = dilate(out, 2.0)
    assert np.all(np.isfinite(dilated.samples))
