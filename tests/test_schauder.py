"""Tests for the expansion construction, remainders and reconstruction."""

import cmath
import itertools

import numpy as np
import pytest
from scipy.linalg import solve_triangular

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
    kernel_remainder_bounds,
    make_sequence,
    partial_sum,
    product_as_function,
    product_eval,
    sup_norm,
    triangular_reconstruct,
)
from blaschke_basis import blaschke, norms, schauder
from blaschke_basis.fnspace import dilate, from_samples, unit_circle_grid
from blaschke_basis.blaschke import running_squared_moduli
from blaschke_basis.norms import NormSpec, RemainderNorms, bergman_radial_rule, ring_sample_counts
from blaschke_basis.toeplitz import iterates

M = 2048


def own_product(seq, m):
    return product_as_function(FiniteBlaschkeProduct(seq.points[:m]), M)


def standalone_remainder(f, seq, n):
    """R_n f = (shift + h_n) * B_n as a function, n >= 1: the chain's last
    iterate times the product on the grid, analyzed by from_samples. It keeps
    M/2 Taylor terms of the product, so along points crowding the boundary it
    loses accuracy (2.0e-11 at n = 40 with M = 4096 along harmonic-shifted)
    and fails the analyticity gate from n = 27 at M = 2048."""
    for lam, (value, h) in zip(seq.points[:n], iterates(f, seq.points[:n])):
        shift = -np.conj(lam) * value
    product = product_eval(FiniteBlaschkeProduct(seq.points[:n]), unit_circle_grid(f.sample_count))
    return from_samples((shift + h.samples) * product, h.analytic_radius, scale_floor=sup_norm(f))


def dilated_bergman_norm(f, p, alpha, radial_nodes):
    """The Bergman norm with every circle r of the radial rule read on all M
    points as the boundary of dilate(f, r), a 1-d pruned synthesis: no code
    of norms.RemainderNorms."""
    radii, weights = bergman_radial_rule(alpha, radial_nodes)
    rings = np.array([np.abs(dilate(f, r).samples) ** 2 for r in radii])
    return float(np.dot(weights, np.mean(rings ** (p / 2.0), axis=1)) ** (1.0 / p))


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
        bounds = kernel_remainder_bounds(seq.points, alpha)
        for n in range(1, 41):
            # oracle: the bound assembled from direct product multiplication
            b_prev = 1.0 + 0j
            for lam in seq.points[: n - 1]:
                b_prev *= (lam - alpha) / (1 - np.conj(lam) * alpha)
            b_curr = b_prev * (seq.points[n - 1] - alpha) / (1 - np.conj(seq.points[n - 1]) * alpha)
            bound = (abs(b_prev) + abs(b_curr)) / (1 - abs(alpha))
            assert result.residual_sup_norms[n - 1] <= bound + 1e-9
            assert bounds[n] == pytest.approx(bound, abs=1e-13)

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
        r5 = standalone_remainder(f, seq, 5)
        assert np.max(np.abs(r5.samples)) <= 1e-10

    def test_remainder_kernel_closed_form(self):
        # independent assembly of the kernel remainder from primitives
        seq = make_sequence("harmonic-shifted", 10)
        alpha = 0.3 + 0.2j
        n = 6
        f = cauchy_kernel(alpha, M)
        lib = standalone_remainder(f, seq, n)
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
        r1 = standalone_remainder(f, seq, 1)
        c0 = eval_inside(f, seq.points[0])
        assert np.max(np.abs(r1.samples - (f.samples - c0))) <= 1e-10


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

    def test_matches_solve_triangular(self):
        # the (i, j) entries B_j(lambda_{i+1}) from product_eval, solved by
        # LAPACK; max |a - a_ref| / max |a_ref| measured 1.2e-15 (7.6e-16 to
        # 1.2e-15 over four random right-hand sides)
        seq = make_sequence("harmonic", 40)
        rng = np.random.default_rng(36)
        values = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        matrix = np.array([[product_eval(FiniteBlaschkeProduct(seq.points[:j]), seq.points[i])
                            if j <= i else 0.0 for j in range(40)] for i in range(40)])
        expected = solve_triangular(matrix, values, lower=True)
        a = triangular_reconstruct(values, seq)
        assert np.max(np.abs(a - expected)) <= 4e-15 * np.max(np.abs(expected))

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

    KERNEL_NORMS = {"bergman:2:0": (2, 0.0, 64), "bergman:1:0.5": (1, 0.5, 64),
                    "bergman:3:2.7": (3, 2.7, 64), "bergman:1.5:-0.5": (1.5, -0.5, 64)}

    @pytest.mark.parametrize("case", ["harmonic-shifted", "harmonic", "poly"])
    def test_bergman_columns_match_standalone_norm(self, case):
        # The table side synthesizes each ring from the iterate's coefficients
        # times a power table, in one batched inverse FFT per chunk of circles
        # on one grid (bergman:2:0 and bergman:2:1:32 on grids sized by
        # radius, the other p on all M points), and takes |B_n|^2 from the
        # closed-form factor moduli of running_squared_moduli. The standalone
        # side is dilated_bergman_norm of standalone_remainder: R_n f as one
        # function (complex grid products of the factors, analyzed by
        # from_samples), each ring read as the boundary of its dilation, a
        # 1-d pruned synthesis. The two share no ring code. Worst relative
        # gap measured: 5.3e-16 along harmonic-shifted, 3.0e-16 along
        # harmonic, 8.5e-16 for the polynomial. The standalone remainder keeps M/2 Taylor terms, which
        # along harmonic-shifted costs it 2.0e-11 at n = 40 with M = 4096
        # (and fails the analyticity gate from n = 27 with M = 2048), so that
        # side is built at M = 8192, for a few n to save time; the table at
        # M = 4096 is within 1e-14 of its own M = 8192 values there. The
        # polynomial is the CLI contract's input and sequence (live length 4,
        # a 32-node ring rule), checked at all 30 n.
        spec, count, sample_count, reference_count, checked, make, norms = {
            "harmonic-shifted": ("harmonic-shifted", 40, 4096, 8192, (1, 3, 9, 27, 40),
                                 lambda m: cauchy_kernel(0.3 + 0.2j, m), self.KERNEL_NORMS),
            "harmonic": ("harmonic", 12, M, M, range(1, 13),
                         lambda m: cauchy_kernel(0.3 + 0.2j, m), self.KERNEL_NORMS),
            "poly": ("harmonic:2.1", 30, M, M, range(1, 31),
                     lambda m: from_taylor([1, 0.5, 0.25j, -0.3], m),
                     {"bergman:2:1:32": (2, 1.0, 32), "bergman:1:0.5": (1, 0.5, 64)}),
        }[case]
        seq = make_sequence(spec, count)
        table = convergence_study(make(sample_count), seq, count, list(norms))
        f = make(reference_count)
        assert case != "poly" or f.live_length == 4
        for n in checked:
            remainder = standalone_remainder(f, seq, n)
            for text, (p, alpha, nodes) in norms.items():
                label = NormSpec.parse(text).label
                assert table.columns[label][n] == pytest.approx(
                    dilated_bergman_norm(remainder, p, alpha, nodes), rel=1e-12, abs=0.0
                )

    @pytest.mark.parametrize("text", ["bergman:2:0", "bergman:1:0.5", "bergman:2:1:32",
                                      "bergman:4:2.7"])
    @pytest.mark.parametrize("func", ["kernel:0.3", "kernel:0.6+0.2i", "poly", "kernel:0.9"])
    def test_row_0_is_the_standalone_norm(self, func, text):
        # R_0 f = f, so a table's first Bergman row and the standalone norm of
        # f are one quadrature on one set of grids, bit for bit; kernel:0.9 is
        # full band at M = 8192, poly the CLI contract's input
        f = {"kernel:0.3": lambda: cauchy_kernel(0.3, M),
             "kernel:0.6+0.2i": lambda: cauchy_kernel(0.6 + 0.2j, M),
             "poly": lambda: from_taylor([1, 0.5, 0.25j, -0.3], M),
             "kernel:0.9": lambda: cauchy_kernel(0.9, 8192)}[func]()
        spec = NormSpec.parse(text)
        table = convergence_study(f, make_sequence("harmonic", 2), 2, [spec])
        assert table.columns[spec.label][0] == bergman_norm(f, spec.p, spec.alpha, spec.radial_nodes)

    @pytest.mark.parametrize("norms, header", [
        (["hardy:2"], "n,sup,hardy:2"),
        # sup is the first column wherever it is listed: the domination check reads it
        (["hardy:3", "sup", "hardy:inf"], "n,sup,hardy:3,hardy:inf"),
    ])
    def test_csv_shape(self, norms, header):
        seq = make_sequence("harmonic-shifted", 4)
        table = convergence_study(from_taylor([1, 1], M), seq, 4, norms)
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == header
        assert len(lines) == 6  # header + rows n = 0..4
        assert text.endswith("\n")

    def test_domination_message_reports_the_compared_bound(self, monkeypatch):
        # with C0 = 0.5 the kernel's hardy:2 norm 1.04828483672 exceeds
        # C0 * sup = 0.5 / (1 - 0.3) at n = 0; the message prints that product
        monkeypatch.setattr(schauder, "EMBEDDING_CONSTANT", 0.5)
        f = cauchy_kernel(0.3, M)
        with pytest.raises(AnalyticityError, match=r"norm hardy:2 = 1\.04828483672 exceeds "
                                                   r"C0 \* sup = 0\.714285714286 at n = 0$"):
            convergence_study(f, make_sequence("harmonic", 4), 4, ["hardy:2"])


class TestRingGrids:
    """The Bergman circles of an even-p column on power-of-two grids sized by
    radius (`norms.ring_sample_counts`), against every circle on the full grid."""

    CASES = {  # function, sequence, steps, (alpha, radial nodes) of the rings
        "kernel:0.3": (lambda: cauchy_kernel(0.3, 2048), "harmonic-shifted", 60, (0.0, 64)),
        "kernel:0.9": (lambda: cauchy_kernel(0.9, 8192), "harmonic:1.7", 100, (1.0, 64)),
        "poly": (lambda: from_taylor([1, 0.5, 0.25j, -0.3], 2048), "harmonic:2.1", 30, (1.0, 32)),
    }

    @pytest.mark.parametrize("alpha, nodes", [(0.0, 64), (1.0, 64), (1.0, 32), (-0.5, 64),
                                              (2.7, 8), (0.0, 1024)])
    @pytest.mark.parametrize("m", [16, 256, 2048, 8192])
    def test_sizes_are_the_smallest_certified_powers_of_two(self, alpha, nodes, m):
        radii = bergman_radial_rule(alpha, nodes)[0]
        sizes = ring_sample_counts(radii, m)
        assert sizes.dtype.kind == "i" and np.all((16 <= sizes) & (sizes <= m))
        assert np.all(sizes & (sizes - 1) == 0)
        assert np.all(np.diff(sizes) <= 0)  # radii descend, so groups are contiguous
        eps_squared = norms.RING_TOLERANCE ** 2
        reduced = sizes < m
        assert np.all(radii[reduced] ** sizes[reduced] <= eps_squared)
        halved = reduced & (sizes > 16)
        assert np.all(radii[halved] ** (sizes[halved] // 2) > eps_squared)

    def test_group_counts_at_64_nodes(self):
        # 7 groups at M = 2048 with 16 full rings, 9 at M = 8192 with 8
        radii = bergman_radial_rule(0.0, 64)[0]
        for m, groups, full, work in ((2048, 7, 16, 0.37), (8192, 9, 8, 0.20)):
            sizes = ring_sample_counts(radii, m)
            assert np.unique(sizes).size == groups
            assert np.count_nonzero(sizes == m) == full
            assert sizes.sum() / (64 * m) == pytest.approx(work, abs=0.005)

    @staticmethod
    def chunk_shapes(sizes):
        # circles of one grid in chunks of at most RING_CHUNK_POINTS points,
        # or one circle, in radius order: 8 circles a chunk at M_r = 2048
        shapes = []
        for size in np.unique(sizes)[::-1]:
            count, per_chunk = np.count_nonzero(sizes == size), max(1, 16384 // size)
            shapes += [(min(per_chunk, count - first), size) for first in range(0, count, per_chunk)]
        return shapes

    @pytest.mark.parametrize("case", list(CASES))
    def test_group_means_match_full_grid_rows(self, case):
        # every circle's angular mean of |R_n|^2 on its own grid against the
        # same circle on all M points, n = 0..N; worst relative gap measured
        # 4.4e-16 (kernel:0.3), 7.6e-16 (kernel:0.9, full band at M = 8192),
        # 4.4e-16 (poly); a circle on all M points is the same computation,
        # bitwise. Each chunk's block lives in one buffer the next chunk
        # overwrites, so its means are taken as it is yielded.
        make, spec, count, (alpha, nodes) = self.CASES[case]
        f = make()
        m = f.sample_count
        assert case != "kernel:0.9" or f.live_length == m // 2
        assert norms.RING_CHUNK_POINTS == 16384
        points = make_sequence(spec, count).points[:count]
        radii = bergman_radial_rule(alpha, nodes)[0]
        sizes = ring_sample_counts(radii, m)
        # p = 2 gets the grids sized by radius, p = 1 all M points
        grouped = RemainderNorms([NormSpec("bergman", 2.0, alpha, nodes)], points, m)
        full = RemainderNorms([NormSpec("bergman", 1.0, alpha, nodes)], points, m)
        steps = itertools.chain([(0.0, f)], ((-np.conj(lam) * value, h) for lam, (value, h)
                                             in zip(points, iterates(f, points))))
        for shift, h in steps:
            shapes, means = [], []
            for indices, block in grouped._moduli(shift, h.taylor):
                assert indices == [0]
                shapes.append(block.shape)
                means.append(np.mean(block, axis=1))
            assert shapes == self.chunk_shapes(sizes)
            means = np.concatenate(means)
            full_blocks = [(block.shape, np.mean(block, axis=1))
                           for _, block in full._moduli(shift, h.taylor)]
            assert [shape for shape, _ in full_blocks] == self.chunk_shapes(np.full(nodes, m))
            expected = np.concatenate([block_means for _, block_means in full_blocks])
            assert np.all(np.abs(means - expected) <= 1e-15 * expected)
            assert np.array_equal(means[sizes == m], expected[sizes == m])

    def test_certificate_checked_at_set_up(self, monkeypatch):
        # with eps = 1e-8 the grids would certify only r^{M_r} <= 1e-16, not
        # the squared unit roundoff 2^-106 = 1.2e-32
        f = cauchy_kernel(0.3, M)
        seq = make_sequence("harmonic-shifted", 4)
        convergence_study(f, seq, 4, ["bergman:2:0"])
        monkeypatch.setattr(norms, "RING_TOLERANCE", 1e-8)
        with pytest.raises(AssertionError, match="certify"):
            convergence_study(f, seq, 4, ["bergman:2:0"])
        convergence_study(f, seq, 4, ["bergman:1:0"])  # odd p keeps all M points

    def test_odd_p_on_shared_circles_keeps_the_full_grid(self, monkeypatch):
        # bergman:1:0 shares its circles with bergman:2:0, so every circle of
        # the set keeps M points and the p = 1 column is the one of a table
        # that has it alone, bit for bit
        sizes = []  # the grid sizes of each set of circles, set by set

        def recording(specs, zeros, sample_count):
            grids = []  # the grid of each chunk's |B_n|^2 stream, in set-up order

            def stream(zeros, z, work):
                grids.append(z.shape[1])
                return running_squared_moduli(zeros, z, work)

            with monkeypatch.context() as patch:
                patch.setattr(norms, "running_squared_moduli", stream)
                rings = RemainderNorms(specs, zeros, sample_count)
            chunk_grids = iter(grids)
            sizes.extend({next(chunk_grids) for _ in chunks} for _, chunks in rings._rings)
            assert next(chunk_grids, None) is None
            return rings

        monkeypatch.setattr(schauder, "RemainderNorms", recording)
        f = cauchy_kernel(0.3 + 0.2j, M)
        seq = make_sequence("harmonic-shifted", 30)
        shared = convergence_study(f, seq, 30, ["bergman:2:0", "bergman:1:0"])
        alone = convergence_study(f, seq, 30, ["bergman:1:0"])
        assert shared.columns["bergman:1:0"] == alone.columns["bergman:1:0"]
        grouped = convergence_study(f, seq, 30, ["bergman:2:0", "bergman:4:0:32"])
        assert sizes[:2] == [{M}, {M}] and len(sizes[2]) == 7 and len(sizes[3]) == 7
        gaps = [abs(a - b) / b for a, b in zip(shared.columns["bergman:2:0"],
                                               grouped.columns["bergman:2:0"])]
        assert max(gaps) <= 1e-15


def test_expansion_result_serialization():
    seq = make_sequence("harmonic-shifted", 4)
    result = expansion_coefficients(from_taylor([1], M), seq, 4, function_label="poly:1")
    obj = result.to_jsonable()
    assert obj["meta"] == {"sample_count": M, "function": "poly:1"}
    assert len(obj["coefficients"]) == 4
    assert len(obj["residual_sup_norms"]) == 4


def test_residuals_bitwise_equal_to_iterate_samples():
    # the residual sup norms are synthesized into one reused buffer, by the
    # same inverse FFT as the iterates' own samples, so they keep every bit;
    # the expansion and the table read them from one RemainderNorms route
    rng = np.random.default_rng(37)
    seq = make_sequence("harmonic", 40)
    for _ in range(3):
        alpha = 0.9 * np.sqrt(rng.uniform()) * cmath.exp(2j * np.pi * rng.uniform())
        f = cauchy_kernel(alpha, 1024)
        expected = [float(np.max(np.abs(-np.conj(lam) * value + h.samples)))
                    for lam, (value, h) in zip(seq.points, iterates(f, seq.points))]
        assert expansion_coefficients(f, seq, 40).residual_sup_norms.tolist() == expected
        assert convergence_study(f, seq, 40, ["sup"]).columns["sup"] == [sup_norm(f), *expected]


def test_expansion_peak_memory_is_a_few_grid_vectors():
    # the chain holds one iterate and one synthesis buffer, and the sup-only
    # RemainderNorms one moduli buffer, freed with the last iterate before the
    # identity pass allocates a few factor arrays: the traced peak at M = 8192,
    # N = 500 is 4.6 complex grid vectors (16 M bytes each) with the grid
    # built inside the call, against 5.2 before the chain kept only the live
    # coefficients. Kept iterates or per-step grid arrays would break the bound.
    import tracemalloc

    m = 8192
    f = cauchy_kernel(0.3, m)
    seq = make_sequence("harmonic:1.7", 500)
    unit_circle_grid.cache_clear()
    tracemalloc.start()
    try:
        expansion_coefficients(f, seq, 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 16 * m


@pytest.mark.parametrize("a, m, spec, specs, alpha", [
    (0.3, 2048, "harmonic-shifted", ["hardy:2", "bergman:2:0"], 0.0),
    (0.9, 8192, "harmonic:1.7", ["bergman:2:1"], 1.0),
])
def test_convergence_peak_memory_per_ring_point(a, m, spec, specs, alpha):
    # the Bergman rings keep 32 bytes a point in their |B_n|^2 streams and a
    # power table per chunk; the per-step arrays are shared and sized to the
    # largest chunk (16384 points). Traced peaks measured 52.9 B (M = 2048,
    # 47,904 ring points) and 50.9 B (M = 8192, 98,080) a ring point, with
    # the chain and the grids built inside the call; per-grid spectrum and
    # moduli buffers, or complex points held past set-up, read 90 B.
    import tracemalloc

    f = cauchy_kernel(a, m)
    seq = make_sequence(spec, 60)
    ring_points = int(ring_sample_counts(bergman_radial_rule(alpha, 64)[0], m).sum())
    unit_circle_grid.cache_clear()
    tracemalloc.start()
    try:
        convergence_study(f, seq, 60, specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * ring_points


def test_degradation_reports_step(monkeypatch):
    # the coefficient chain is cross-checked against the telescoped identity,
    # evaluated on the grid one Blaschke factor at a time by the unchecked
    # factor kernel; a factor that disagrees with the chain in one grid value
    # (b_{lambda_1} off by 1 at one sample) fails it, with drift 0.64
    # against 1e-8 * sup|f| = 2e-8
    seq = make_sequence("harmonic-shifted", 4)
    factor = blaschke._factor

    def perturbed(lam, z):
        values = factor(lam, z)
        if lam == seq.points[0]:
            values[5] += 1.0
        return values

    monkeypatch.setattr(blaschke, "_factor", perturbed)
    f = cauchy_kernel(0.5, 64)
    with pytest.raises(AnalyticityError, match="telescoping drift"):
        expansion_coefficients(f, seq, 4)
