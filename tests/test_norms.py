"""Tests for the quadrature norms and embedding checks."""

import math

import numpy as np
import pytest

from blaschke_basis import (
    FiniteBlaschkeProduct,
    NormSpec,
    PreconditionError,
    bergman_norm,
    cauchy_kernel,
    embedding_check,
    from_taylor,
    hardy_norm,
    product_as_function,
    sup_norm,
)
from blaschke_basis.selftest import reference_corpus

M = 2048


class TestSupNorm:
    def test_constant(self):
        assert sup_norm(from_taylor([3 - 4j], M)) == pytest.approx(5.0)

    def test_blaschke_product_is_unimodular(self):
        f = product_as_function(FiniteBlaschkeProduct(np.array([0.1, 0.4j, -0.5, 0.2, 0.6])), M)
        assert sup_norm(f) == pytest.approx(1.0, abs=1e-12)

    def test_kernel_peak_on_the_circle(self):
        assert sup_norm(cauchy_kernel(0.5, M)) == pytest.approx(2.0, abs=1e-12)


class TestHardyNorm:
    def test_constant_any_p(self):
        one = from_taylor([1], M)
        for p in (1, 2, 3.5):
            assert hardy_norm(one, p) == pytest.approx(1.0)

    def test_kernel_h2_closed_form(self):
        assert hardy_norm(cauchy_kernel(0.8, M), 2) == pytest.approx(1 / 0.6, abs=1e-8)

    def test_monomials_are_unit_vectors(self):
        for n in (1, 5, 17):
            f = from_taylor([0] * n + [1], M)
            assert hardy_norm(f, 2) == pytest.approx(1.0, abs=1e-12)

    def test_h1_against_independent_riemann_sum(self):
        rng = np.random.default_rng(51)
        coeffs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        f = from_taylor(coeffs, M)
        theta = 2 * np.pi * (np.arange(3000) + 0.5) / 3000  # midpoint rule, offset grid
        ring = np.exp(1j * theta)
        dense = np.mean(np.abs(np.polynomial.polynomial.polyval(ring, coeffs)))
        assert hardy_norm(f, 1) == pytest.approx(dense, rel=1e-9)

    def test_rejects_bad_exponent(self):
        f = from_taylor([1], M)
        with pytest.raises(PreconditionError):
            hardy_norm(f, 0.5)
        with pytest.raises(PreconditionError):
            hardy_norm(f, math.inf)


class TestBergmanNorm:
    def test_normalized_to_one_on_constants(self):
        one = from_taylor([1], M)
        for p, alpha in ((1, 0.0), (2, 0.0), (2, 0.5), (1.5, -0.5), (2, 3.0)):
            assert bergman_norm(one, p, alpha) == pytest.approx(1.0, abs=1e-12)

    def test_identity_function_polar_oracle(self):
        # int |z|^2 dA/pi over the disk = 2 int_0^1 r^3 dr = 1/2
        z = from_taylor([0, 1], M)
        assert bergman_norm(z, 2, 0.0) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_weighted_monomial_closed_form(self):
        # ||z^n||^2 with weight (1+a)(1-|z|^2)^a is (1+a) B(n+1, a+1)
        z3 = from_taylor([0, 0, 0, 1], M)
        alpha = 0.5
        from scipy.special import beta

        expected = math.sqrt((1 + alpha) * beta(4.0, alpha + 1.0))
        assert bergman_norm(z3, 2, alpha) == pytest.approx(expected, abs=1e-12)

    def test_dominated_by_sup(self):
        for label, f in reference_corpus(M):
            assert bergman_norm(f, 2, 0.0) <= sup_norm(f) + 1e-10, label

    def test_node_doubling_stability(self):
        rng = np.random.default_rng(52)
        f = from_taylor(rng.standard_normal(33) + 1j * rng.standard_normal(33), M)
        for p, alpha in ((2, 0.0), (2, 0.5)):
            coarse = bergman_norm(f, p, alpha, radial_nodes=64)
            fine = bergman_norm(f, p, alpha, radial_nodes=128)
            assert abs(coarse - fine) <= 1e-9

    def test_parameter_validation(self):
        f = from_taylor([1], M)
        with pytest.raises(PreconditionError):
            bergman_norm(f, 0.5, 0.0)
        with pytest.raises(PreconditionError):
            bergman_norm(f, 2, -1.0)


class TestNormSpec:
    def test_parse_round_trip_labels(self):
        for text in ("sup", "hardy:2", "bergman:2:0", "bergman:1.5:0.5"):
            assert NormSpec.parse(text).label == text

    def test_parse_optional_radial_nodes(self):
        spec = NormSpec.parse("bergman:2:0:128")
        assert spec.radial_nodes == 128
        assert spec.label == "bergman:2:0"

    def test_hardy_inf_routes_to_sup(self):
        spec = NormSpec("hardy", p=math.inf)
        f = cauchy_kernel(0.5, M)
        assert spec.evaluate(f) == pytest.approx(sup_norm(f))

    def test_bad_specs_rejected(self):
        for text in ("hardy", "bergman:2", "chebyshev:1", "hardy:zero", "sup:2",
                     "bergman:2:0:0"):
            with pytest.raises(PreconditionError):
                NormSpec.parse(text)


class TestEmbedding:
    def test_blaschke_products_bounded_by_one(self):
        f = product_as_function(FiniteBlaschkeProduct(np.array([0.3, -0.2j])), M)
        for text in ("hardy:1", "hardy:2", "bergman:2:0"):
            report = embedding_check(f, NormSpec.parse(text))
            assert report.holds
            assert report.norm_x <= 1.0 + 1e-10

    def test_large_kernel_hardy1(self):
        report = embedding_check(cauchy_kernel(0.9, M), NormSpec.parse("hardy:1"))
        assert report.holds

    def test_zero_function(self):
        report = embedding_check(from_taylor([0], M), NormSpec.parse("hardy:2"))
        assert report.norm_x == 0.0
        assert report.c0_times_sup == 0.0
        assert report.holds

    def test_hardy_monotone_in_p(self):
        for label, f in reference_corpus(M)[:6]:
            values = [hardy_norm(f, p) for p in (1, 2, 4, 8)]
            for a, b in zip(values, values[1:]):
                assert a <= b + 1e-10, label
