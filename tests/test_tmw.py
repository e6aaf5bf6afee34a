"""Tests for the orthonormal rational system and the growth witness."""

import math

import numpy as np
import pytest

import oracle
from blaschke_basis import (
    PreconditionError,
    cauchy_kernel,
    eval_inside,
    functional_norm,
    gram_matrix,
    hardy_norm,
    iterates,
    lacunary_witness,
    make_sequence,
    tmw_element,
    zero_extraction_step,
)
from blaschke_basis import toeplitz
from blaschke_basis.blaschke import running_products
from blaschke_basis.fnspace import unit_circle_grid
from blaschke_basis.tmw import _element_rows, _truncated_kernel, resolve_support

M = 8192
EPS = np.finfo(float).eps


class TestElements:
    def test_first_element_at_origin_is_constant_one(self):
        seq = make_sequence("explicit:[0, 0.5]", 2)
        element = tmw_element(seq, 1, 2048)
        assert np.allclose(element.function.samples, 1.0, atol=1e-12)

    def test_first_element_closed_form(self):
        # lambda_1 = 0.6: the element is 0.8 * k_0.6 with unit H^2 norm
        seq = make_sequence("explicit:[0.6]", 1)
        element = tmw_element(seq, 1, 2048)
        assert eval_inside(element.function, 0.0) == pytest.approx(0.8, abs=1e-12)
        assert hardy_norm(element.function, 2) == pytest.approx(1.0, abs=1e-10)

    def test_second_element_vanishes_at_first_point(self):
        seq = make_sequence("harmonic", 3)
        element = tmw_element(seq, 2, 2048)
        assert abs(eval_inside(element.function, seq.points[0])) <= 1e-12

    def test_unit_norms_across_the_system(self):
        seq = make_sequence("harmonic", 12)
        for n in (1, 6, 12):
            element = tmw_element(seq, n, M)
            assert hardy_norm(element.function, 2) == pytest.approx(1.0, abs=1e-8)

    def test_index_bounds(self):
        seq = make_sequence("harmonic", 3)
        with pytest.raises(PreconditionError):
            tmw_element(seq, 0, 2048)
        with pytest.raises(PreconditionError):
            tmw_element(seq, 4, 2048)


class TestGram:
    def test_single_element(self):
        seq = make_sequence("harmonic", 1)
        gram = gram_matrix(seq, 1, 2048)
        assert gram[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_each_factor_evaluated_once(self, monkeypatch):
        import blaschke_basis.blaschke as blaschke_module

        calls = []
        factor = blaschke_module._factor

        def counting_factor(lam, z):
            calls.append(lam)
            return factor(lam, z)

        # every factor loop on a grid runs the one unchecked kernel
        monkeypatch.setattr(blaschke_module, "_factor", counting_factor)
        seq = make_sequence("harmonic", 16)
        gram = gram_matrix(seq, 16, 512)
        assert len(calls) == 15
        monkeypatch.undo()
        # each row is its weighted truncated kernel times the running
        # product B_{n-1}, multiplied in that order
        rows = self.element_rows(seq, 512)
        assert np.array_equal(_element_rows(seq, range(1, 17), 512), rows)
        # the Gram sums each column in one BLAS product, in another order
        # than the per-pair mean (worst gap measured: 6.7e-16)
        for i in range(16):
            for j in range(i, 16):
                entry = np.mean(rows[i] * np.conj(rows[j]))
                assert abs(gram[i, j] - entry) <= 1e-15
                assert gram[j, i] == np.conj(gram[i, j])

    @staticmethod
    def element_rows(seq, m):
        grid = unit_circle_grid(m)
        products = running_products(seq.points[:-1], grid)
        return np.array([
            math.sqrt(1.0 - abs(lam) ** 2) * _truncated_kernel(lam, grid) * product
            for lam, product in zip(seq.points, products)
        ])

    def test_sparse_support_rows_are_the_full_rows(self):
        # the witness's support skips indices; its rows are those of the
        # full range bit for bit
        seq = make_sequence("harmonic-shifted", 11)
        support = [2, 3, 5, 11]
        rows = _element_rows(seq, support, 512)
        assert np.array_equal(rows, self.element_rows(seq, 512)[[n - 1 for n in support]])

    @pytest.mark.parametrize("theta", [0.4, 1.3, 2.9])
    def test_identity_at_k64(self, theta):
        # measured max|G - I|: 2.9e-15, 6.3e-15 and 4.8e-15
        seq = make_sequence(f"harmonic:{theta}", 64)
        gram = gram_matrix(seq, 64, M)
        assert np.max(np.abs(gram - np.eye(64))) <= 1e-14

    def test_disjoint_zero_sets_orthogonal(self):
        seq = make_sequence("harmonic", 2)
        gram = gram_matrix(seq, 2, M)
        assert abs(gram[0, 1]) <= 1e-8


class TestTruncatedKernel:
    """`_truncated_kernel` samples the kernel truncated at M/2 in closed form."""

    MODULI = [0.3, 0.9, 0.998]

    @pytest.mark.parametrize("m", [512, M])
    @pytest.mark.parametrize("modulus", MODULI)
    def test_matches_the_oracle(self, modulus, m):
        # the helper works at the rounded grid points, whose angles carry a
        # few units of rounding; a sample's relative condition number with
        # respect to its point is |lambda|/(1 - |lambda|), so the bound is
        # 8 eps sup/(1 - |lambda|). Measured worst gaps relative to the sup
        # over random angles: 6.7e-16 at 0.5, 5.2e-15 at 0.9, 8.1e-14 at 0.998
        lam = modulus * np.exp(0.7j)
        expected = np.array([complex(v) for v in oracle.truncated_kernel_samples(lam, m)])
        got = _truncated_kernel(lam, unit_circle_grid(m))
        sup = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 8 * EPS * sup / (1.0 - modulus)

    @pytest.mark.parametrize("m", [512, M])
    @pytest.mark.parametrize("modulus", MODULI)
    def test_matches_the_synthesized_kernel(self, modulus, m):
        # measured worst: 1.7e-13 of the sup at 0.998
        lam = modulus * np.exp(2.1j)
        expected = cauchy_kernel(lam, m).samples
        got = _truncated_kernel(lam, unit_circle_grid(m))
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestFunctionalNorm:
    def test_origin_point(self):
        seq = make_sequence("explicit:[0]", 1)
        report = functional_norm(seq, 1, 2048)
        assert report.quadrature == pytest.approx(1.0, abs=1e-12)
        assert report.closed_form == 1.0

    def test_closed_form_at_08(self):
        seq = make_sequence("explicit:[0.8]", 1)
        report = functional_norm(seq, 1, 2048)
        assert report.closed_form == pytest.approx(1.0 / 0.6)
        assert report.quadrature == pytest.approx(report.closed_form, rel=1e-8)

    def test_growth_along_the_sequence(self):
        seq = make_sequence("harmonic-shifted", 40)
        values = [functional_norm(seq, n, 2048).closed_form for n in range(10, 41)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("m", [2048, M])
    @pytest.mark.parametrize("spec, rel", [
        ("harmonic", 1e-12),
        ("harmonic:1.3", 1e-12),
        # lambda_500 = 0.998 puts the kernel's peak within 0.002 of z = 1;
        # the quadrature sums no factor moduli, so only the kernel samples'
        # rounding is left (measured 3.1e-14 at M = 2048, 2.2e-14 at 8192)
        ("harmonic-shifted", 1e-12),
    ])
    def test_quadrature_is_the_truncated_kernel_norm(self, spec, rel, m):
        # |B_{n-1}| = 1 on the circle, so the quadrature is the norm of the
        # kernel truncated at M/2: sqrt(1 - |lambda|^M)/sqrt(1 - |lambda|^2)
        # (measured relative gap at most 3.3e-14 on spread-out points)
        seq = make_sequence(spec, 500)
        for n in (1, 5, 98, 500):
            r = abs(seq.points[n - 1])
            exact = math.sqrt(1.0 - r ** m) / math.sqrt(1.0 - r * r)
            assert functional_norm(seq, n, m).quadrature == pytest.approx(exact, rel=rel)

    def test_quadrature_matches_closed_form_up_to_099(self):
        seq = make_sequence("harmonic-shifted", 98)  # |lambda_98| = 0.99
        for n in (1, 30, 98):
            report = functional_norm(seq, n, M)
            assert report.quadrature == pytest.approx(report.closed_form, rel=1e-8)


class TestWitness:
    def test_single_term_support_unit_coefficient(self):
        seq = make_sequence("harmonic-shifted", 8)
        report = lacunary_witness(seq, 8, exponent=0.0, support=[5], sample_count=2048)
        lam = seq.points[4]
        assert report.coefficients == [1.0]
        assert report.values[0] == pytest.approx(1.0 / math.sqrt(1 - abs(lam) ** 2), rel=1e-10)

    def test_pow2_values_match_closed_form_and_grow(self):
        seq = make_sequence("harmonic-shifted", 32)
        report = lacunary_witness(seq, 32, exponent=0.25, support="pow2")
        assert report.support == [2, 4, 8, 16, 32]
        for n, c, value in zip(report.support, report.coefficients, report.values):
            expected = c / math.sqrt(1 - abs(seq.points[n - 1]) ** 2)
            assert value == pytest.approx(expected, rel=1e-7)
        assert all(a < b for a, b in zip(report.values, report.values[1:]))
        assert report.l2_partial_sum <= 2.0

    def test_chain_stops_before_the_unread_iterate(self, monkeypatch):
        # values up to h_{kmax-1}(lambda_kmax) need kmax - 1 steps; they are
        # the full chain's evaluations bit for bit
        seq = make_sequence("harmonic-shifted", 8)
        steps = []
        step = toeplitz.zero_extraction_step
        monkeypatch.setattr(toeplitz, "zero_extraction_step",
                            lambda f, lam: steps.append(lam) or step(f, lam))
        report = lacunary_witness(seq, 8, support="pow2", sample_count=512)
        assert len(steps) == 7
        monkeypatch.undo()
        chain = [abs(value) for value, _ in iterates(report.function, seq.points[:8])]
        assert report.values == [chain[n - 1] for n in report.support]

    def test_cross_terms_cancel(self):
        seq = make_sequence("harmonic-shifted", 16)
        target = 8
        for n in (2, 4, 16):
            iterate = tmw_element(seq, n, M).function
            for lam in seq.points[: target - 1]:
                _, iterate = zero_extraction_step(iterate, lam)
            assert abs(eval_inside(iterate, seq.points[target - 1])) <= 1e-8

    def test_requires_modulus_to_one(self):
        seq = make_sequence("explicit:[0.5, 0.7]", 2)
        with pytest.raises(PreconditionError):
            lacunary_witness(seq, 2, support=[2])

    def test_requires_non_blaschke(self):
        seq = make_sequence("geometric:0.5", 8)
        with pytest.raises(PreconditionError):
            lacunary_witness(seq, 8)

    def test_support_exceeding_kmax_rejected(self):
        seq = make_sequence("harmonic-shifted", 8)
        with pytest.raises(PreconditionError):
            lacunary_witness(seq, 8, support=[2, 16])

    def test_report_serialization_keys(self):
        seq = make_sequence("harmonic-shifted", 8)
        report = lacunary_witness(seq, 8, support=[2, 4], sample_count=2048)
        obj = report.to_jsonable()
        assert set(obj) == {"support", "c", "lambda_modulus", "values", "l2_partial_sum"}


class TestSupportResolution:
    def test_pow2(self):
        assert resolve_support("pow2", 32) == [2, 4, 8, 16, 32]
        assert resolve_support("pow2", 33) == [2, 4, 8, 16, 32]

    def test_explicit_sorted_deduped(self):
        assert resolve_support([8, 2, 2, 4], 8) == [2, 4, 8]

    def test_comma_separated_text(self):
        assert resolve_support("11,2,3,5,3", 16) == [2, 3, 5, 11]
        for text in ("2,x", "2,,3", ""):
            with pytest.raises(PreconditionError, match="comma-separated indices"):
                resolve_support(text, 16)

    def test_unknown_string(self):
        with pytest.raises(PreconditionError):
            resolve_support("fib", 8)

    def test_empty_or_tiny_range(self):
        with pytest.raises(PreconditionError):
            resolve_support("pow2", 1)
        with pytest.raises(PreconditionError):
            resolve_support([], 8)
