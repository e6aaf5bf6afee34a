"""Tests for the boundary-sampled function representation."""

import numpy as np
import pytest

from blaschke_basis import (
    AnalyticityError,
    PreconditionError,
    cauchy_kernel,
    dilate,
    eval_inside,
    from_samples,
    from_taylor,
    pairing,
    riesz_project,
)
from blaschke_basis.blaschke import FiniteBlaschkeProduct, product_as_function
from blaschke_basis.fnspace import (
    BoundaryFunction,
    _synthesize,
    deflate,
    disk_points,
    point_value,
    unit_circle_grid,
)
from blaschke_basis.toeplitz import iterates


def horner_oracle(coeffs, z):
    """Independent polynomial evaluation: plain right-to-left Horner loop."""
    acc = 0j
    for c in reversed(list(coeffs)):
        acc = acc * z + c
    return acc


class TestFromTaylor:
    def test_constant(self):
        f = from_taylor([1], 16)
        assert np.allclose(f.samples, 1.0)

    def test_identity_samples_are_roots_of_unity(self):
        f = from_taylor([0, 1], 16)
        assert np.allclose(f.samples, unit_circle_grid(16))

    def test_zero_padding(self):
        f = from_taylor([1, 2, 3], 64)
        assert np.array_equal(f.taylor[:3], [1, 2, 3])
        assert np.all(f.taylor[3:] == 0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(PreconditionError):
            from_taylor([1], 24)

    def test_rejects_tiny_grid(self):
        with pytest.raises(PreconditionError):
            from_taylor([1], 8)

    def test_rejects_overlong_coefficients(self):
        with pytest.raises(PreconditionError):
            from_taylor(np.ones(9), 16)

    def test_rejects_empty(self):
        with pytest.raises(PreconditionError):
            from_taylor([], 16)

    def test_rejects_radius_below_one(self):
        with pytest.raises(PreconditionError):
            from_taylor([1], 16, analytic_radius=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(PreconditionError, match="finite"):
            from_taylor([1, bad], 16)


class TestLayout:
    """Only the M/2 analytic coefficients a_0..a_{M/2-1} are stored."""

    M = 64

    @pytest.mark.parametrize("build", [
        lambda m: from_taylor([1, 2j, 3], m),
        lambda m: from_samples(unit_circle_grid(m) ** 3),
        lambda m: riesz_project(np.conj(unit_circle_grid(m)) + unit_circle_grid(m)),
        lambda m: dilate(from_taylor([1, 2, 3], m, analytic_radius=2.0), 1.5),
        lambda m: dilate(from_taylor([1, 2, 3], m), 0.5),
        lambda m: cauchy_kernel(0.3 - 0.2j, m),
        lambda m: product_as_function(FiniteBlaschkeProduct([0.5, -0.3j]), m),
    ], ids=["from_taylor", "from_samples", "riesz_project", "dilate-expand",
            "dilate-shrink", "cauchy_kernel", "product_as_function"])
    def test_every_constructor_stores_half_the_grid(self, build):
        f = build(self.M)
        assert f.sample_count == self.M
        assert f.samples.shape == (self.M,)
        assert f.taylor.shape == (self.M // 2,)

    @pytest.mark.parametrize("taylor, message", [
        (np.ones((2, 32)), "taylor must be 1-d"),
        (np.ones(24), "power of two >= 16, got 48"),
        (np.ones(4), "power of two >= 16, got 8"),
        (np.ones(0), "power of two >= 16, got 0"),
    ], ids=["2-d", "not-power-of-two", "below-8", "empty"])
    def test_malformed_taylor_rejected(self, taylor, message):
        with pytest.raises(PreconditionError, match=message):
            BoundaryFunction(taylor, 1.0)

    def test_eval_bitwise_equal_to_zero_padded_horner(self):
        # storing only a_0..a_{M/2-1} changes no value: the deflation of the
        # zero-padded length-M list gives the same b_0 bit for bit; polyval,
        # an independent Horner loop, agrees within 3.5e-16 * sum |a_k| |z|^k
        # (measured 2.6e-16 over these trials, 3.54e-16 over 2000)
        rng = np.random.default_rng(12)
        polyval = np.polynomial.polynomial.polyval
        for trial in range(24):
            m = 16 * 2 ** (trial % 4)
            coeffs = rng.standard_normal(m // 2) + 1j * rng.standard_normal(m // 2)
            f = from_taylor(coeffs, m)
            z = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            padded = np.zeros(m, dtype=complex)
            padded[: m // 2] = f.taylor
            value = eval_inside(f, z)
            assert value == deflate(padded, z)[0]
            scale = np.sum(np.abs(coeffs) * abs(z) ** np.arange(m // 2))
            assert abs(value - polyval(z, padded)) <= 3.5e-16 * scale

    def test_samples_synthesized_only_when_read(self, monkeypatch):
        from blaschke_basis import fnspace

        calls = []
        synthesize = fnspace._synthesize
        monkeypatch.setattr(fnspace, "_synthesize",
                            lambda taylor, live: calls.append(1) or synthesize(taylor, live))
        f = cauchy_kernel(0.3, self.M)
        for _, _, h in iterates(f, [0.1, -0.2j, 0.5]):
            pass
        assert calls == []
        first = h.samples
        assert h.samples is first and not first.flags.writeable
        assert len(calls) == 1


class TestLiveLength:
    """live_length: a_k == 0 exactly for k >= live_length, and live_length >= 1."""

    M = 64

    @pytest.mark.parametrize("build, live", [
        (lambda m: from_taylor([1, 2j, 3], m), 3),
        (lambda m: from_taylor([1, 2, 0, 0, 0], m), 2),
        (lambda m: from_taylor([0, 0, 0], m), 1),
        (lambda m: from_taylor(np.ones(m // 2), m), 32),
        (lambda m: BoundaryFunction(np.r_[1.0, 0.0, 5.0, np.zeros(29)], 1.0), 3),
        (lambda m: BoundaryFunction(np.zeros(32), 1.0), 1),
        (lambda m: from_samples(unit_circle_grid(m) ** 3), 32),
        (lambda m: dilate(from_taylor([1, 2, 3], m, analytic_radius=2.0), 1.5), 3),
    ], ids=["from_taylor", "trailing-zeros", "zero", "full", "constructor",
            "constructor-zero", "from_samples", "dilate"])
    def test_every_constructor_records_it(self, build, live):
        f = build(self.M)
        assert f.live_length == live
        assert not np.any(f.taylor[f.live_length:])
        assert f.to_jsonable()["taylor"] == [[c.real, c.imag] for c in f.taylor[:live]]

    def test_eval_reads_only_the_live_prefix(self):
        # the value is b_0 of the full-width deflation bit for bit: the dead
        # tail contributes exact zeros
        rng = np.random.default_rng(13)
        for degree in (0, 3, 30):
            coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            f = from_taylor(coeffs, 256)
            for z in (0.0, 0.4 - 0.7j, 0.95):
                assert eval_inside(f, z) == deflate(f.taylor, z)[0]


class TestSynthesize:
    """The pruned synthesis against numpy's zero-padded length-M inverse FFT."""

    #: Both routes stay within 6e-16 * sum |a_k| of an 80-bit evaluation, but
    #: their twiddles round differently, so they differ by up to 8.7e-16 *
    #: sum |a_k| (300 draws with live = 2 at M = 16384; 3.3e-16 from live = 16
    #: on). Few-term inputs set the bound.
    RTOL = 1e-15

    @pytest.mark.parametrize("m", [16, 256, 2048, 8192, 16384])
    def test_matches_zero_padded_ifft(self, m):
        rng = np.random.default_rng(m)
        out = np.empty(m, dtype=complex)
        for live in sorted({1, 2, max(m // 64, 1), m // 8, m // 4 + 1, m // 2}):
            taylor = np.zeros(m // 2, dtype=complex)
            taylor[:live] = rng.standard_normal(live) + 1j * rng.standard_normal(live)
            padded = np.zeros(m, dtype=complex)
            padded[: m // 2] = taylor
            expected = np.fft.ifft(padded) * m
            bound = self.RTOL * np.sum(np.abs(taylor))
            assert np.max(np.abs(_synthesize(taylor, live) - expected)) <= bound
            assert _synthesize(taylor, live, out=out) is out
            assert np.max(np.abs(out - expected)) <= bound

    def test_rows(self):
        rng = np.random.default_rng(17)
        m, live = 256, 20
        taylor = np.zeros((3, m // 2), dtype=complex)
        taylor[:, :live] = rng.standard_normal((3, live)) + 1j * rng.standard_normal((3, live))
        expected = np.fft.ifft(np.concatenate([taylor, np.zeros_like(taylor)], axis=1)) * m
        assert np.max(np.abs(_synthesize(taylor, live) - expected)) <= (
            self.RTOL * np.max(np.sum(np.abs(taylor), axis=1)))

    def test_samples_at_radius_rows(self):
        # a circle of radius r is the boundary of the dilation z -> f(r z)
        f = from_taylor([1, 0.5j, -0.25, 0.125], 256)
        grid = unit_circle_grid(256)
        for r in (0.0, 0.3, 0.7, 1.0):
            row = dilate(f, r).samples
            assert row.shape == (256,)
            points = r * grid[[0, 31, 200]]
            exact = [1 + 0.5j * z - 0.25 * z**2 + 0.125 * z**3 for z in points]
            assert np.max(np.abs(row[[0, 31, 200]] - exact)) <= 1e-15
        assert np.max(np.abs(dilate(f, 1.0).samples - f.samples)) <= 1e-15


class TestEvalInside:
    def test_constant(self):
        f = from_taylor([1], 64)
        for z in (0, 0.5, 0.3 + 0.4j):
            assert eval_inside(f, z) == pytest.approx(1.0)

    def test_monomial(self):
        f = from_taylor([0, 0, 0, 1], 64)
        assert eval_inside(f, 0.5) == pytest.approx(0.125)

    def test_quadratic_example(self):
        f = from_taylor([1, 0, 2], 64)
        assert eval_inside(f, 0.0) == pytest.approx(1.0)
        assert eval_inside(f, 0.5) == pytest.approx(1.5)
        assert eval_inside(f, 1j * 0.5) == pytest.approx(1 + 2 * (0.5j) ** 2)

    def test_against_horner_oracle(self):
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        f = from_taylor(coeffs, 256)
        for z in (0.1, -0.6 + 0.2j, 0.9j):
            assert eval_inside(f, z) == pytest.approx(horner_oracle(coeffs, z), abs=1e-12)

    def test_kernel_closed_form(self):
        f = cauchy_kernel(0.3, 256)
        assert eval_inside(f, 0.5) == pytest.approx(1.0 / 0.85, abs=1e-12)

    def test_rejects_point_outside_guard(self):
        f = from_taylor([1], 64)
        with pytest.raises(PreconditionError):
            eval_inside(f, 1.0)


class TestFromSamples:
    def test_negative_frequency_gated_before_it_is_dropped(self):
        with pytest.raises(AnalyticityError, match="at bin 63 "):
            from_samples(np.conj(unit_circle_grid(64)))

    def test_nan_samples_rejected(self):
        with pytest.raises(AnalyticityError):
            from_samples(np.full(16, np.nan))


class TestRieszProject:
    def test_conjugate_identity_projects_to_zero(self):
        grid = unit_circle_grid(64)
        f = riesz_project(np.conj(grid))
        assert np.max(np.abs(f.samples)) <= 1e-14

    def test_constant_plus_conjugate(self):
        grid = unit_circle_grid(64)
        f = riesz_project(2.0 + np.conj(grid))
        assert np.allclose(f.samples, 2.0, atol=1e-13)

    def test_factor_times_kernel_is_coanalytic(self):
        # conj(b_lam) * k_lam = -conj(z)/(1 - lam*conj(z)) on the circle:
        # purely negative frequencies, so the projection is the zero function
        lam = 0.4
        grid = unit_circle_grid(512)
        values = np.conj((lam - grid) / (1 - lam * grid)) / (1 - lam * grid)
        f = riesz_project(values)
        assert np.max(np.abs(f.samples)) <= 1e-10

    def test_full_operation_idempotent_to_roundoff(self):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        first = riesz_project(raw)
        second = riesz_project(first.samples)
        scale = np.max(np.abs(first.taylor))
        assert np.max(np.abs(second.taylor - first.taylor)) <= 1e-13 * scale


class TestDilate:
    def test_identity_dilation_returns_same_object(self):
        f = from_taylor([1, 2], 64)
        assert dilate(f, 1.0) is f

    def test_quadratic(self):
        f = from_taylor([0, 0, 1], 64)
        g = dilate(f, 0.5)
        assert g.taylor[2] == pytest.approx(0.25)

    def test_geometric_series_oracle(self):
        # 1/(1 - z/2) dilated by 1.5 has coefficients (3/4)^k
        m = 2048
        f = from_taylor([0.5**k for k in range(m // 2)], m, analytic_radius=2.0)
        g = dilate(f, 1.5)
        expected = np.array([0.75**k for k in range(m // 2)])
        assert np.max(np.abs(g.taylor[: m // 2] - expected)) <= 1e-12
        assert g.analytic_radius == pytest.approx(2.0 / 1.5)

    def test_rejects_beyond_declared_radius(self):
        f = from_samples(np.ones(64))
        with pytest.raises(PreconditionError):
            dilate(f, 1.5)

    def test_overflowing_tail_is_reported(self):
        # noise-scale coefficients amplified by r^k past the float range
        taylor = np.zeros(2048, dtype=complex)
        taylor[0] = 1.0
        taylor[1000] = 1e-280
        f = from_taylor(taylor[:1024], 2048, analytic_radius=5.0)
        with pytest.raises(AnalyticityError):
            dilate(f, 4.0)


class TestPairingAndGrid:
    def test_round_trip_relative_error(self):
        rng = np.random.default_rng(5)
        for degree in (3, 100, 1023):
            coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            f = from_taylor(coeffs, 2048)
            recovered = np.fft.fft(f.samples) / 2048
            rel = np.max(np.abs(recovered[: degree + 1] - coeffs)) / np.max(np.abs(coeffs))
            assert rel <= 1e-12

    def test_pairing_of_monomials_is_orthonormal(self):
        m = 64
        zi = from_taylor([0, 0, 1], m)
        zj = from_taylor([0, 0, 0, 1], m)
        assert pairing(zi, zi) == pytest.approx(1.0)
        assert abs(pairing(zi, zj)) <= 1e-15

    def test_samples_at_radius_matches_eval(self):
        f = cauchy_kernel(0.5, 256)
        ring = dilate(f, 0.7).samples
        grid = unit_circle_grid(256)
        for idx in (0, 17, 100):
            assert ring[idx] == pytest.approx(eval_inside(f, 0.7 * grid[idx]), abs=1e-12)


class TestDiskPoint:
    def test_guard_band(self):
        points = disk_points([0.5, 1 - 1e-8, -(1 - 1e-8) * 1j])  # allowed
        assert points.dtype == complex and points[1] == 1 - 1e-8
        with pytest.raises(PreconditionError):
            disk_points([0.5, 1 - 1e-9])
        assert point_value(1 - 1e-8) == 1 - 1e-8
        with pytest.raises(PreconditionError):
            point_value(1 - 1e-9)

    @pytest.mark.parametrize("value", [np.nan, complex(0.1, np.nan), np.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(PreconditionError):
            disk_points([0.1, value])
        with pytest.raises(PreconditionError):
            point_value(value)

    def test_first_offender_named(self):
        with pytest.raises(PreconditionError) as caught:
            disk_points([0.2, 1.5, np.nan, 2.0])
        assert str(caught.value) == "point (1.5+0j) has modulus 1.5 > 1 - 1e-08"
        with pytest.raises(PreconditionError, match=r"^point \(nan\+0j\) has modulus nan"):
            disk_points(np.array([[0.1, 0.2], [np.nan, 3.0]]))

    def test_fresh_array(self):
        values = np.array([0.1, 0.2j])
        points = disk_points(values)
        assert points is not values and np.array_equal(points, values)

    def test_serialization_round_trip(self):
        from blaschke_basis import BoundaryFunction

        f = cauchy_kernel(0.25 + 0.1j, 64)
        restored = BoundaryFunction.from_jsonable(f.to_jsonable())
        assert np.max(np.abs(restored.samples - f.samples)) <= 1e-15
        assert restored.analytic_radius == pytest.approx(f.analytic_radius)
