"""Tests for Blaschke factors, products, kernels and sequence generators."""

import numpy as np
import pytest

import oracle

from blaschke_basis import (
    FiniteBlaschkeProduct,
    PreconditionError,
    SequenceKind,
    blaschke_factor,
    cauchy_kernel,
    eval_inside,
    hardy_norm,
    make_sequence,
    pointwise_decay_check,
    product_as_function,
    product_eval,
)
from blaschke_basis import blaschke
from blaschke_basis.blaschke import nested_sum, running_products, running_squared_moduli
from blaschke_basis.fnspace import BOUNDARY_GUARD, unit_circle_grid
from blaschke_basis.norms import bergman_radial_rule


def direct_product_oracle(zeros, z):
    """Independent evaluation: explicit loop over the factor formula."""
    acc = 1 + 0j
    for lam in zeros:
        acc *= (lam - z) / (1 - np.conj(lam) * z)
    return acc


class TestFactor:
    def test_vanishes_at_its_point(self):
        lam = 0.37 + 0.2j
        assert blaschke_factor(lam, lam) == pytest.approx(0.0, abs=1e-16)

    def test_value_at_origin(self):
        lam = 0.37 + 0.2j
        assert blaschke_factor(lam, 0.0) == pytest.approx(lam)

    def test_unimodular_on_circle(self):
        z = np.exp(1j * np.pi / 3)
        assert abs(blaschke_factor(0.5, z)) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_point_outside_disk(self):
        with pytest.raises(PreconditionError):
            blaschke_factor(1.2, 0.0)


class TestProductEval:
    def test_empty_product_is_one(self):
        empty = FiniteBlaschkeProduct()
        for z in (0.0, 0.5j, np.exp(0.7j)):
            assert product_eval(empty, z) == pytest.approx(1.0)

    def test_vanishes_at_a_zero(self):
        product = FiniteBlaschkeProduct(np.array([0.5]))
        assert product_eval(product, 0.5) == pytest.approx(0.0, abs=1e-16)

    def test_telescoping_product_oracle(self):
        # zeros 1 - 1/(k+2): B_N(0) telescopes to 2/(N+2); compare the library
        # value against both the closed form and a direct multiplication loop
        for n in (1, 5, 20, 60):
            zeros = np.array([1.0 - 1.0 / (k + 2) for k in range(1, n + 1)])
            value = product_eval(FiniteBlaschkeProduct(zeros), 0.0)
            direct = direct_product_oracle(zeros, 0.0)
            assert value == pytest.approx(direct, abs=1e-15)
            assert value == pytest.approx(2.0 / (n + 2), abs=1e-14)


class TestRunningSquaredModuli:
    @staticmethod
    def ring_points(sample_count=256):
        # the circles of the 64-node Bergman rule, the outermost at
        # r = 1 - 1.7e-4 included
        radii = bergman_radial_rule(0.0, 64)[0]
        return radii[:, None] * unit_circle_grid(sample_count)

    @staticmethod
    def zeros(count=60):
        rng = np.random.default_rng(11)
        points = 0.95 * np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))
        # every seventh zero at |lambda| = 1 - 1e-8 (to seven digits, so that
        # rounding keeps it inside the boundary guard)
        points[::7] = (1.0 - 1.0000001e-8) * np.exp(2j * np.pi * rng.uniform(size=points[::7].size))
        return points

    def test_matches_complex_running_products_on_rings(self):
        # |B_n|^2 from the real identity against |B_n|^2 of the complex
        # products at the same points, n = 0..60: worst relative gap
        # measured 4.7e-14 (at n = 52), over values down to 1.5e-34
        z = self.ring_points()
        worst = 0.0
        pairs = zip(running_products(self.zeros(), z), running_squared_moduli(self.zeros(), z))
        for n, (product, squared) in enumerate(pairs):
            reference = np.abs(product) ** 2
            worst = max(worst, float(np.max(np.abs(squared - reference) / reference)))
        assert n == 60
        assert worst <= 1e-13

    def test_matches_40_digit_products(self):
        # the innermost and outermost circles, every eighth angle, after all
        # 60 factors: worst relative gap measured 7.0e-15 (the complex
        # products: 4.3e-15)
        z = self.ring_points()[[0, -1], ::8].ravel()
        for squared in running_squared_moduli(self.zeros(), z):
            pass
        reference = oracle.squared_product_moduli(self.zeros(), z)
        gap = max(abs(float((value - exact) / exact)) for value, exact in zip(squared, reference))
        assert gap <= 1e-14

    @pytest.mark.parametrize("form", ["array", "tuple"])
    def test_work_pair_changes_no_bit(self, form):
        # a caller's scratch pair, overwritten between steps as the Bergman
        # rings overwrite theirs with each chunk's synthesis, yields bit for
        # bit the stream with scratch arrays of its own, n = 0..60
        z = self.ring_points()
        work = np.empty((2, *z.shape))
        pair = work if form == "array" else (work[0], work[1])
        plain = running_squared_moduli(self.zeros(), z)
        shared = running_squared_moduli(self.zeros(), z, pair)
        for n, (expected, squared) in enumerate(zip(plain, shared)):
            assert np.array_equal(squared, expected)
            work.fill(np.nan)
        assert n == 60

    def test_first_yield_is_one_and_zero_at_a_zero(self):
        lam = 0.4 - 0.3j
        moduli = running_squared_moduli([lam], np.array([lam, 0.0, np.exp(0.3j)]))
        assert np.array_equal(next(moduli), np.ones(3))
        assert next(moduli) == pytest.approx([0.0, abs(lam) ** 2, 1.0], abs=1e-15)

    def test_degenerate_denominator_rejected(self):
        # the denominator cannot degenerate at |z| <= 1 for points inside the
        # guard; the pole z = 1/conj(lambda) lies outside the closed disk,
        # which both routes refuse
        lam, pole = 0.5, np.array([2.0])
        with pytest.raises(PreconditionError, match="reach modulus 2 > 1 \\+ 5e-09"):
            list(running_squared_moduli([lam], pole))
        with pytest.raises(PreconditionError, match="reach modulus 2 > 1 \\+ 5e-09"):
            blaschke_factor(lam, pole)


class TestCheckedOncePerCall:
    """Each factor loop checks its zeros and its points once, then runs the
    unchecked factor."""

    ZEROS = np.array([0.5, -0.3j])

    @staticmethod
    def evaluate(route, z):
        zeros = TestCheckedOncePerCall.ZEROS
        if route == "blaschke_factor":
            return blaschke_factor(zeros[0], z)
        if route == "running_products":
            return list(running_products(zeros, z))
        return list(running_squared_moduli(zeros, z))

    @pytest.mark.parametrize("z", [1.5, np.nan, complex(0.1, np.nan), np.inf])
    @pytest.mark.parametrize("route", ["blaschke_factor", "running_products",
                                       "running_squared_moduli"])
    def test_points_outside_the_closed_disk_rejected(self, route, z):
        # before, a value (or a NaN) came back
        points = np.array([0.2, z, 0.3j])
        with pytest.raises(PreconditionError, match="factors are evaluated on the closed unit disk"):
            self.evaluate(route, points)

    @pytest.mark.parametrize("zero", [1.5, np.nan])
    @pytest.mark.parametrize("route", ["running_products", "running_squared_moduli",
                                       "nested_sum"])
    def test_zeros_outside_the_guard_rejected(self, route, zero):
        zeros = np.array([0.5, zero, 0.2j])
        with pytest.raises(PreconditionError, match=r"point \(.*\) has modulus"):
            if route == "nested_sum":
                nested_sum(zeros, np.ones(3, dtype=complex), np.zeros(16, dtype=complex))
            else:
                list(getattr(blaschke, route)(zeros, 0.1))

    def test_unit_grid_is_in_the_closed_disk(self):
        # the rounded roots of unity exceed modulus 1 by at most 2.2e-16
        for exponent in range(4, 18):
            grid = unit_circle_grid(2 ** exponent)
            assert float(np.max(np.abs(grid))) - 1.0 <= 2.3e-16
            assert blaschke._closed_disk(grid) is grid

    def test_closed_disk_slack_keeps_the_denominator_away_from_zero(self):
        # the worst disk point against the worst admitted z: the denominator
        # is about BOUNDARY_GUARD / 2 and the numerator 3 BOUNDARY_GUARD / 2
        lam = 1.0 - BOUNDARY_GUARD
        z = 1.0 + BOUNDARY_GUARD / 2
        assert abs(1.0 - np.conj(lam) * z) >= BOUNDARY_GUARD / 2
        assert blaschke_factor(lam, z) == pytest.approx(-3.0, abs=1e-6)

    def test_nested_sum_matches_running_products(self):
        zeros = np.array([0.5, -0.3j, 0.6 + 0.2j])
        coefficients = np.array([1.0, 2.0 - 1j, 0.5j])
        tail = np.full(64, 0.25 + 0j)
        grid = unit_circle_grid(64)
        products = list(running_products(zeros, grid))
        expected = sum(c * b for c, b in zip(coefficients, products)) + 0.25 * products[-1]
        assert np.max(np.abs(nested_sum(zeros, coefficients, tail) - expected)) <= 1e-14


class TestProductAsFunction:
    def test_empty_product(self):
        f = product_as_function(FiniteBlaschkeProduct(), 64)
        assert np.allclose(f.samples, 1.0)

    def test_zero_at_origin_gives_minus_z(self):
        f = product_as_function(FiniteBlaschkeProduct(np.array([0.0])), 64)
        assert np.allclose(f.taylor[:2], [0.0, -1.0], atol=1e-15)

    def test_taylor_matches_geometric_expansion(self):
        # (0.5 - z)/(1 - 0.5 z) = 0.5 - 0.75 z - 0.375 z^2 - ...
        f = product_as_function(FiniteBlaschkeProduct(np.array([0.5])), 256)
        expected = [0.5] + [-0.75 * 0.5 ** (k - 1) for k in range(1, 40)]
        assert np.max(np.abs(f.taylor[:40] - expected)) <= 1e-10

    def test_unimodularity_invariant(self):
        rng = np.random.default_rng(9)
        zeros = 0.8 * np.sqrt(rng.uniform(size=8)) * np.exp(2j * np.pi * rng.uniform(size=8))
        f = product_as_function(FiniteBlaschkeProduct(zeros), 2048)
        assert np.max(np.abs(np.abs(f.samples) - 1.0)) <= 1e-12

    def test_interior_agreement_with_product_eval(self):
        rng = np.random.default_rng(10)
        zeros = 0.8 * np.sqrt(rng.uniform(size=64)) * np.exp(2j * np.pi * rng.uniform(size=64))
        product = FiniteBlaschkeProduct(zeros)
        f = product_as_function(product, 2048)
        points = 0.9 * np.sqrt(rng.uniform(size=100)) * np.exp(2j * np.pi * rng.uniform(size=100))
        for z in points:
            assert abs(eval_inside(f, z) - product_eval(product, z)) <= 1e-9

    def test_degree_cap(self):
        zeros = np.zeros(17, dtype=complex)
        with pytest.raises(PreconditionError):
            product_as_function(FiniteBlaschkeProduct(zeros), 64)

    def test_distinct_zeros_not_required_for_products(self):
        # multiplicity is fine for products (only sequences require distinctness)
        f = product_as_function(FiniteBlaschkeProduct(np.array([0.3, 0.3])), 64)
        assert abs(eval_inside(f, 0.3)) <= 1e-14


class TestCauchyKernel:
    def test_origin_kernel_is_constant_one(self):
        f = cauchy_kernel(0.0, 64)
        assert np.allclose(f.samples, 1.0)

    def test_self_evaluation(self):
        lam = 0.45 - 0.3j
        f = cauchy_kernel(lam, 512)
        assert eval_inside(f, lam) == pytest.approx(1.0 / (1.0 - abs(lam) ** 2), abs=1e-12)

    def test_h2_norm_closed_form(self):
        f = cauchy_kernel(0.8, 2048)
        assert hardy_norm(f, 2) == pytest.approx(1.0 / np.sqrt(1 - 0.64), abs=1e-8)


class TestMakeSequence:
    def test_harmonic_shifted_values(self):
        seq = make_sequence("harmonic-shifted", 3)
        assert np.allclose(seq.points, [2 / 3, 3 / 4, 4 / 5])
        assert seq.kind is SequenceKind.NON_BLASCHKE
        assert seq.modulus_to_one

    def test_geometric_values(self):
        seq = make_sequence("geometric:0.25", 3)
        assert np.allclose(seq.points, [0.75, 0.9375, 0.984375])
        assert seq.kind is SequenceKind.BLASCHKE

    def test_harmonic_spiral_moduli(self):
        seq = make_sequence("harmonic", 5)
        assert np.allclose(np.abs(seq.points), [1 - 1 / (n + 1) for n in range(1, 6)])
        assert seq.kind is SequenceKind.NON_BLASCHKE

    def test_harmonic_custom_phase(self):
        seq = make_sequence("harmonic:0.5", 2)
        assert np.angle(seq.points[0]) == pytest.approx(0.5)

    def test_explicit_parses_complex_entries(self):
        seq = make_sequence("explicit:[0.5, 0.1+0.2i]", 2)
        assert seq.points[1] == pytest.approx(0.1 + 0.2j)
        assert seq.kind is SequenceKind.NON_BLASCHKE
        assert not seq.modulus_to_one

    def test_explicit_duplicates_rejected(self):
        with pytest.raises(PreconditionError):
            make_sequence("explicit:[0.5, 0.5]", 2)
        # the closest pair is reported, ties going to the lowest indices
        with pytest.raises(PreconditionError, match=r"lambda_2 - lambda_4\| = 3\.000e-11"):
            make_sequence("explicit:[0.1, 0.5, 0.3i, 0.5+3e-11i, 0.5-3e-11i]", 0)
        with pytest.raises(PreconditionError, match=r"lambda_1 - lambda_3\|"):
            make_sequence("explicit:[0.2i, 0.2, 4e-11+0.2i]", 0)
        # same real part but far apart, and near in real part only: distinct
        assert len(make_sequence("explicit:[0.1, 0.1+0.5i, 0.1-0.5i, 0.10000000002+0.2i]", 0)) == 4

    def test_distinctness_check_memory_is_linear(self):
        import tracemalloc

        tracemalloc.start()
        try:
            make_sequence("harmonic", 3000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the pairwise distance matrix alone would take 3000^2 * 8 B = 72 MB
        assert peak < 2_000_000

    def test_unknown_spec_rejected(self):
        with pytest.raises(PreconditionError):
            make_sequence("fibonacci", 4)

    def test_geometric_ratio_validated(self):
        with pytest.raises(PreconditionError):
            make_sequence("geometric:1.5", 4)

    def test_json_round_trip_fields(self):
        obj = make_sequence("harmonic-shifted", 2).to_jsonable()
        assert obj["kind"] == "non-blaschke"
        assert obj["generator_tag"] == "harmonic-shifted"
        assert np.allclose(obj["points"], [[2 / 3, 0.0], [0.75, 0.0]])


class TestPointwiseDecay:
    def test_zero_at_sequence_point(self):
        seq = make_sequence("harmonic-shifted", 10)
        values = pointwise_decay_check(seq, seq.points[0], 10)
        assert values[0] == 1.0
        assert max(values[1:]) <= 1e-15

    def test_harmonic_shifted_decays_toward_zero(self):
        seq = make_sequence("harmonic-shifted", 60)
        values = pointwise_decay_check(seq, 0.0, 60)
        # direct-product oracle: B_n(0) = prod of moduli
        direct = 1.0
        for n, lam in enumerate(seq.points, start=1):
            direct *= abs(lam)
            assert values[n] == pytest.approx(direct, abs=1e-14)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_blaschke_contrast_case_bounded_below(self):
        # geometric sequences converge: |B_n(0)| stays bounded away from zero
        # (K capped where 1 - q^n reaches the boundary guard)
        seq = make_sequence("geometric:0.5", 25)
        values = pointwise_decay_check(seq, 0.0, 25)
        assert values[-1] > 0.28

    def test_geometric_sequence_hits_boundary_guard(self):
        # 1 - 0.5^n crosses 1 - 1e-8 around n = 27; the generator reports it
        with pytest.raises(PreconditionError):
            make_sequence("geometric:0.5", 40)
