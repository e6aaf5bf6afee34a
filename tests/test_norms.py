"""Tests for the quadrature norms and embedding checks."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import roots_jacobi

import oracle
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
from blaschke_basis.norms import RemainderNorms, bergman_radial_rule, gauss_jacobi

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


RULE_ALPHAS = (-0.9, -0.5, 0.0, 0.5, 1.0, 2.7)

#: |x - x_ref| for the nodes; measured 3.3e-16 against roots_jacobi (at
#: alpha 2.7, 32 nodes) and 2.2e-16 against the 40-digit rule.
NODE_BOUND = 4.5e-16
#: max |w / w_scipy - 1|; measured 5.5e-10 (alpha -0.9, 128 nodes), which is
#: scipy's own error: its gap to the 40-digit rule there is 5.5e-10, ours 6.4e-13.
SCIPY_WEIGHT_BOUND = 1e-9
#: max |w / w_ref - 1| against the 40-digit rule, up to 64 nodes; measured
#: 2.1e-13 (alpha -0.9, 64 nodes), where roots_jacobi is 9.0e-12 off.
ORACLE_WEIGHT_BOUND = 6e-13
#: |sum w u^k / exact - 1| over k <= 2n - 1; measured 7.4e-14.
EXACTNESS_BOUND = 2e-13


class TestRadialRule:
    @pytest.mark.parametrize("alpha", RULE_ALPHAS)
    @pytest.mark.parametrize("nodes", (1, 2, 8, 32, 64, 128))
    def test_matches_roots_jacobi(self, alpha, nodes):
        x, w = gauss_jacobi(nodes, alpha)
        x_ref, w_ref = roots_jacobi(nodes, 0.0, alpha)
        assert np.max(np.abs(x - x_ref)) <= NODE_BOUND
        assert np.max(np.abs(w / (w_ref / np.sum(w_ref)) - 1.0)) <= SCIPY_WEIGHT_BOUND

    # the 40-digit rule takes about 0.5 s at 64 nodes, so that size runs for
    # the two extreme weights and the Legendre case only
    @pytest.mark.parametrize("nodes, alpha", [(n, a) for n in (1, 2, 8, 32) for a in RULE_ALPHAS]
                             + [(64, a) for a in (-0.9, 0.0, 2.7)])
    def test_matches_40_digit_rule(self, nodes, alpha):
        x, w = gauss_jacobi(nodes, alpha)
        x_ref, w_ref = oracle.gauss_jacobi_rule(nodes, alpha)
        assert max(abs(x[i] - x_ref[i]) for i in range(nodes)) <= NODE_BOUND
        assert max(abs(mpmath.mpf(w[i]) / w_ref[i] - 1) for i in range(nodes)) <= ORACLE_WEIGHT_BOUND

    @pytest.mark.parametrize("alpha", RULE_ALPHAS)
    @pytest.mark.parametrize("nodes", (1, 2, 8, 32, 64, 128))
    def test_exact_on_polynomials(self, alpha, nodes):
        # (1+a) int_0^1 u^k u^a du = (1+a) B(k+1, a+1) = (1+a)/(k+1+a), u = (1+x)/2
        x, w = gauss_jacobi(nodes, alpha)
        u = (1.0 + x) / 2.0
        for k in range(2 * nodes):
            exact = (1.0 + alpha) / (k + 1.0 + alpha)
            assert abs(math.fsum(w * u**k) / exact - 1.0) <= EXACTNESS_BOUND

    def test_large_alpha_still_has_a_rule(self):
        x, w = gauss_jacobi(64, 1e10)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", (1e20, 1e300))
    def test_alpha_without_a_rule_is_a_precondition_error(self, alpha):
        # 1e20 gave NaN nodes and weights, 1e300 a LinAlgError from eigvalsh
        with pytest.raises(PreconditionError, match="alpha"):
            gauss_jacobi(64, alpha)

    def test_radial_rule_is_cached_and_read_only(self):
        radii, weights = bergman_radial_rule(0.5, 64)
        assert bergman_radial_rule(0.5, 64)[0] is radii
        assert not radii.flags.writeable and not weights.flags.writeable
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)  # measured 1.1e-16


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

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.7])
    def test_p2_matches_the_taylor_formula(self, alpha):
        # random complex polynomials of degree 3..100, where the 64-node
        # radial rule is exact (degree <= 127 in u = 1 - r^2), against the
        # exact A^2_alpha norm from the coefficients (tests/oracle.py), which
        # reads no circle; worst relative gap measured 5.7e-15
        rng = np.random.default_rng(43)
        for degree in (3, *rng.integers(4, 100, size=6), 100):
            f = from_taylor(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1), M)
            expected = oracle.bergman_norm_from_taylor(f.taylor, alpha)
            assert bergman_norm(f, 2, alpha) == pytest.approx(expected, rel=1e-14, abs=0.0)

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

    @pytest.mark.parametrize("text", ["bergman:inf:0", "bergman:inf:1.5"])
    def test_bergman_inf_is_the_sup(self, text):
        # A^inf_alpha is the sup over the disk, attained on the boundary; the
        # kernel's finite-p norms, read on the circles, stay below it
        spec = NormSpec.parse(text)
        for f in (from_taylor([2], 64), cauchy_kernel(0.5 - 0.2j, M)):
            assert spec.evaluate(f) == sup_norm(f)
            assert bergman_norm(f, math.inf, spec.alpha) == sup_norm(f)
        assert NormSpec("bergman", 2.0, spec.alpha).evaluate(f) < sup_norm(f)

    def test_bad_specs_rejected(self):
        for text in ("hardy", "bergman:2", "chebyshev:1", "hardy:zero", "sup:2",
                     "bergman:2:0:0"):
            with pytest.raises(PreconditionError):
                NormSpec.parse(text)

    def test_radial_nodes_capped_before_allocation(self):
        # the rule's eigenproblem would hold dense nodes x nodes matrices
        assert NormSpec("bergman", 2.0, 0.0, 1024).radial_nodes == 1024
        for nodes in (1025, 10**9):
            with pytest.raises(PreconditionError, match="radial_nodes"):
                NormSpec("bergman", 2.0, 0.0, nodes)


class TestRemainderNorms:
    @pytest.mark.parametrize("p", [2, 4, 600, 1200])
    def test_norms_are_homogeneous_far_from_unit_scale(self, p):
        # every power mean is taken of moduli divided by their grid max, so
        # |f|^p and the ring squares neither underflow nor overflow; without
        # that, 2^-600 k reads 0.0 at p = 2 and 2^600 k overflows at p = 600
        f = cauchy_kernel(0.3, M)
        for scale in (2.0 ** -600, 2.0 ** 600):
            g = from_taylor(scale * f.taylor, M)
            for norm in (hardy_norm, bergman_norm):
                assert norm(g, p) == pytest.approx(scale * norm(f, p), rel=1e-15, abs=0.0)

    def test_specs_differing_only_in_radial_nodes_keep_their_values(self):
        # bergman:2:0:8 and bergman:2:0:64 share a label; each keeps its own
        # value, in spec order, bit for bit the standalone norm
        k = cauchy_kernel(0.9, M)
        specs = [NormSpec.parse("bergman:2:0:8"), NormSpec.parse("bergman:2:0:64")]
        values = RemainderNorms(specs, (), M).step(0.0, k, k.samples)
        assert values == [spec.evaluate(k) for spec in specs]
        assert values[0] != values[1]

    def test_sup_only_instance_holds_one_grid_vector(self):
        # the expansion's residual route: no circles, no chunk buffers and no
        # Hardy index, only the M-float moduli buffer (which keeps the
        # expand-stress peak), and each step returns [top]
        m = 8192
        tracemalloc.start()
        try:
            rings = RemainderNorms([NormSpec("sup")], (), m)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                return [obj]
            if isinstance(obj, (list, tuple)):
                return [array for item in obj for array in arrays(item)]
            return []

        held_arrays = arrays(list(vars(rings).values()))
        assert [(a.dtype, a.shape) for a in held_arrays] == [(np.dtype(float), (m,))]
        assert held <= 8 * m + 2048
        k = cauchy_kernel(0.3, m)
        assert rings.step(0.0, k, k.samples) == [sup_norm(k)]


class TestEmbedding:
    def test_blaschke_products_bounded_by_one(self):
        f = product_as_function(FiniteBlaschkeProduct(np.array([0.3, -0.2j])), M)
        for text in ("hardy:1", "hardy:2", "bergman:2:0"):
            report = embedding_check(f, NormSpec.parse(text))
            assert report.holds
            assert report.lhs <= 1.0 + 1e-10

    def test_large_kernel_hardy1(self):
        report = embedding_check(cauchy_kernel(0.9, M), NormSpec.parse("hardy:1"))
        assert report.holds

    def test_zero_function(self):
        report = embedding_check(from_taylor([0], M), NormSpec.parse("hardy:2"))
        assert report.lhs == 0.0
        assert report.rhs == 0.0
        assert report.holds
