"""Registry of runtime invariant checks behind the `selftest` CLI command.

Each check raises AssertionError (or a library error) on failure; the
registry records which module's contract it guards. The same checks back
the pytest suite so the CLI selftest and the tests cannot drift apart.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import blaschke, fnspace, norms, schauder, tmw, toeplitz
from .blaschke import FiniteBlaschkeProduct, cauchy_kernel, make_sequence, product_eval
from .fnspace import eval_inside, from_samples, from_taylor, pairing, unit_circle_grid

DEFAULT_SAMPLES = fnspace.DEFAULT_SAMPLE_COUNT
DEFAULT_TMW_SAMPLES = tmw.DEFAULT_TMW_SAMPLE_COUNT

_CORPUS_SEED = 20240917


def reference_lambdas(count: int = 20, radius: float = 0.9, seed: int = _CORPUS_SEED + 1):
    """Deterministic interior points with |lambda| <= radius."""
    rng = np.random.default_rng(seed)
    moduli = radius * np.sqrt(rng.uniform(size=count))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return moduli * np.exp(1j * phases)


def reference_corpus(sample_count: int | None = None):
    """Twenty labeled test functions: polynomials to degree 32, kernels with
    |alpha| <= 0.9, Blaschke products to degree 8. Deterministic."""
    m = sample_count or DEFAULT_SAMPLES
    rng = np.random.default_rng(_CORPUS_SEED)
    corpus = []
    for degree in (1, 2, 3, 5, 8, 13, 21, 32):
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        corpus.append((f"poly-deg{degree}", from_taylor(coeffs, m)))
    for alpha in (0.3, -0.5, 0.6j, -0.7 + 0.3j, 0.5 - 0.6j, 0.9):
        corpus.append((f"kernel-{alpha}", cauchy_kernel(alpha, m)))
    for degree in (1, 2, 3, 4, 6, 8):
        zeros = 0.8 * np.sqrt(rng.uniform(size=degree)) * np.exp(
            2j * np.pi * rng.uniform(size=degree)
        )
        corpus.append(
            (f"blaschke-deg{degree}", blaschke.product_as_function(FiniteBlaschkeProduct(zeros), m))
        )
    return corpus


def _reference_product(degree: int, seed: int = _CORPUS_SEED + 2) -> FiniteBlaschkeProduct:
    rng = np.random.default_rng(seed)
    zeros = 0.8 * np.sqrt(rng.uniform(size=degree)) * np.exp(
        2j * np.pi * rng.uniform(size=degree)
    )
    return FiniteBlaschkeProduct(zeros)


# --- fnspace -----------------------------------------------------------------

def check_taylor_round_trip(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    rng = np.random.default_rng(_CORPUS_SEED + 3)
    for degree in (0, 1, 7, m // 2 - 1):
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        f = from_taylor(coeffs, m)
        recovered = np.fft.fft(f.samples) / m
        recovered[: m // 2] -= f.taylor  # the other half must be 0
        err = np.max(np.abs(recovered)) / np.max(np.abs(f.taylor))
        assert err <= 1e-12, f"round-trip relative error {err:.3e} at degree {degree}"


def check_riesz_idempotent(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    rng = np.random.default_rng(_CORPUS_SEED + 4)
    raw = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    projected = fnspace.riesz_project(raw)
    again = fnspace.riesz_project(projected.samples)
    scale = np.max(np.abs(projected.taylor))
    drift = np.max(np.abs(again.taylor - projected.taylor))
    assert drift <= 1e-13 * max(scale, 1.0), f"projection round trip drifted {drift:.3e}"


def check_pairing_self_adjoint(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    rng = np.random.default_rng(_CORPUS_SEED + 5)
    for _ in range(5):
        s = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        t = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        lhs = pairing(fnspace.riesz_project(s), t)
        rhs = pairing(s, fnspace.riesz_project(t))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0), (
            f"<Ps,t> = {lhs} vs <s,Pt> = {rhs}"
        )


def check_dilation_pairing_symmetry(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    rng = np.random.default_rng(_CORPUS_SEED + 6)
    f = from_taylor(rng.standard_normal(12) + 1j * rng.standard_normal(12), m)
    g = from_taylor(rng.standard_normal(9) + 1j * rng.standard_normal(9), m)
    for r in (0.3, 0.8, 0.97):
        lhs = pairing(fnspace.dilate(f, r), g)
        rhs = pairing(f, fnspace.dilate(g, r))
        assert abs(lhs - rhs) <= 1e-10, f"dilation pairing asymmetry {abs(lhs - rhs):.3e} at r={r}"


def check_eval_matches_cauchy_pairing(sample_count: int | None) -> None:
    # on the check's grid and on the coarse M = 512 grid
    m = sample_count or DEFAULT_SAMPLES
    for grid_size in (m, 512):
        for label, f in reference_corpus(grid_size)[:6]:
            for z in reference_lambdas(5, radius=0.95, seed=_CORPUS_SEED + 7):
                direct = eval_inside(f, z)
                paired = pairing(f, cauchy_kernel(z, grid_size))
                assert abs(direct - paired) <= 1e-10, (
                    f"{label}: eval {direct} vs pairing {paired} at z={z}, M={grid_size}"
                )


# --- blaschke ----------------------------------------------------------------

def check_unimodularity(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    grid = unit_circle_grid(m)
    for degree in (1, 3, 8):
        values = product_eval(_reference_product(degree), grid)
        worst = np.max(np.abs(np.abs(values) - 1.0))
        assert worst <= 1e-12, f"|B| deviates from 1 by {worst:.3e} at degree {degree}"


def check_kernel_factor_identity(sample_count: int | None) -> None:
    # on the circle and at interior points
    m = sample_count or DEFAULT_SAMPLES
    z = np.concatenate([unit_circle_grid(m), [0.0, 0.5, -0.3j],
                        reference_lambdas(8, radius=0.95, seed=_CORPUS_SEED + 21)])
    for lam in reference_lambdas(8, radius=0.9, seed=_CORPUS_SEED + 8):
        kernel_values = 1.0 / (1.0 - np.conj(lam) * z)
        identity = (1.0 - abs(lam) ** 2) * kernel_values + np.conj(lam) * blaschke.blaschke_factor(lam, z)
        worst = np.max(np.abs(identity - 1.0))
        assert worst <= 1e-13, f"kernel-factor identity off by {worst:.3e} at lambda={lam}"


def check_product_multiplicativity(sample_count: int | None) -> None:
    # a 3 + 4 split of the zeros, and a 2 + 4 split of other ones
    for degrees, seed in (((3, 4), _CORPUS_SEED + 9), ((2, 4), _CORPUS_SEED + 22)):
        first = _reference_product(degrees[0], seed=seed)
        second = _reference_product(degrees[1], seed=seed + 1)
        merged = FiniteBlaschkeProduct(np.concatenate([first.zeros, second.zeros]))
        for z in reference_lambdas(10, radius=0.95, seed=_CORPUS_SEED + 11):
            lhs = product_eval(merged, z)
            rhs = product_eval(first, z) * product_eval(second, z)
            assert abs(lhs - rhs) <= 1e-14, f"multiplicativity gap {abs(lhs - rhs):.3e}, split {degrees}"


def check_product_function_agreement(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    product = _reference_product(min(64, m // 4), seed=_CORPUS_SEED + 12)
    f = blaschke.product_as_function(product, m)
    for z in reference_lambdas(100, radius=0.9, seed=_CORPUS_SEED + 13):
        direct = product_eval(product, z)
        via_series = eval_inside(f, z)
        assert abs(direct - via_series) <= 1e-9, (
            f"product evaluation mismatch {abs(direct - via_series):.3e} at z={z}"
        )


# --- toeplitz ----------------------------------------------------------------

def check_reconstruction_identity(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    grid = unit_circle_grid(m)
    lambdas = reference_lambdas(20, radius=0.9)
    for label, f in reference_corpus(m):
        scale = np.max(np.abs(f.samples))
        for lam in lambdas:
            kernel = cauchy_kernel(lam, m)
            b = blaschke.blaschke_factor(lam, grid)
            value, applied = toeplitz.zero_extraction_step(f, lam)
            recon = (1.0 - abs(lam) ** 2) * value * kernel.samples + b * applied.samples
            worst = np.max(np.abs(f.samples - recon))
            assert worst <= 1e-10 * scale, (
                f"{label}: reconstruction residual {worst:.3e} > 1e-10 * {scale:.3e} at lambda={lam}"
            )


def check_eigen_relation(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    for degree in range(1, 9):
        product = _reference_product(degree)
        for alpha in reference_lambdas(6, radius=0.9, seed=_CORPUS_SEED + 14):
            kernel = cauchy_kernel(alpha, m)
            applied = toeplitz.toeplitz_product_apply(kernel, product)
            expected = np.conj(product_eval(product, alpha)) * kernel.samples
            worst = np.max(np.abs(applied.samples - expected))
            assert worst <= 1e-9, (
                f"eigen-relation residual {worst:.3e} at degree {degree}, alpha={alpha}"
            )


def check_cross_algorithm_agreement(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    grid = unit_circle_grid(m)
    lambdas = reference_lambdas(4, radius=0.85, seed=_CORPUS_SEED + 15)
    for label, f in reference_corpus(m):
        for lam in lambdas:
            via_recurrence = toeplitz.zero_extraction_step(f, lam)[1]
            via_projection = toeplitz.toeplitz_general_apply(f, blaschke.blaschke_factor(lam, grid))
            worst = np.max(np.abs(via_recurrence.samples - via_projection.samples))
            assert worst <= 1e-9, f"{label}: algorithms disagree by {worst:.3e} at lambda={lam}"


def check_composition_order(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    lam1, lam2 = 0.45 + 0.2j, -0.3 + 0.55j
    for label, f in reference_corpus(m)[:8]:
        forward = toeplitz.toeplitz_product_apply(f, FiniteBlaschkeProduct([lam1, lam2]))
        reverse = toeplitz.toeplitz_product_apply(f, FiniteBlaschkeProduct([lam2, lam1]))
        worst = np.max(np.abs(forward.samples - reverse.samples))
        assert worst <= 1e-10, f"{label}: composition order changed result by {worst:.3e}"


def check_grid_norm_equality(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    for label, f in reference_corpus(m)[:10]:
        report = toeplitz.factor_sup_bound_check(f, 0.5)
        assert report.holds, f"{label}: 3*sup bound failed ({report.lhs} > {report.rhs})"
        assert report.grid_equality_gap <= 1e-10 * max(report.rhs, 1.0), (
            f"{label}: grid norm equality gap {report.grid_equality_gap:.3e}"
        )


# --- schauder ----------------------------------------------------------------

def check_telescoping_identity(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    seq = make_sequence("harmonic-shifted", 24)
    for label, f in reference_corpus(m)[:10]:
        scale = max(float(np.max(np.abs(f.samples))), 1e-300)
        result = schauder.expansion_coefficients(f, seq, 24, label)
        assert result.remainder_identity_gap <= 1e-9 * scale, (
            f"{label}: telescoping gap {result.remainder_identity_gap:.3e} > 1e-9 * {scale:.3e}"
        )


def check_exactness_on_span(sample_count: int | None) -> None:
    # spans of 6 and 5 elements, each expanded to twice its length
    m = sample_count or DEFAULT_SAMPLES
    grid = unit_circle_grid(m)
    for span, seed in ((6, _CORPUS_SEED + 16), (5, _CORPUS_SEED + 23)):
        seq = make_sequence("harmonic-shifted", 2 * span)
        rng = np.random.default_rng(seed)
        gammas = rng.standard_normal(span) + 1j * rng.standard_normal(span)
        total = np.zeros(m, dtype=complex)
        running = np.ones(m, dtype=complex)
        for k, gamma in enumerate(gammas):
            total = total + gamma * running
            running = running * blaschke.blaschke_factor(seq.points[k], grid)
        f = from_samples(total, 1.0, scale_floor=float(np.sum(np.abs(gammas))))
        result = schauder.expansion_coefficients(f, seq, 2 * span)
        recovered = result.coefficients[:span]
        assert np.max(np.abs(recovered - gammas)) <= 1e-9, f"span {span}: coefficients not recovered"
        assert np.max(np.abs(result.coefficients[span:])) <= 1e-9, f"span {span}: ghost coefficients"
        assert np.max(result.residual_sup_norms[span - 1:]) <= 1e-9, f"span {span}: nonzero residual"


def check_uniqueness_round_trip(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    # the spiral sequence keeps the triangular diagonal O(1); points that all
    # accumulate at +1 shrink it geometrically and amplify roundoff instead
    seq = make_sequence("harmonic", 16)
    rng = np.random.default_rng(_CORPUS_SEED + 17)
    f = from_taylor(rng.standard_normal(9) + 1j * rng.standard_normal(9), m)
    result = schauder.expansion_coefficients(f, seq, 16)
    total = schauder.partial_sum(result, 16, m)
    values = [eval_inside(total, lam) for lam in seq.points[:16]]
    recovered = schauder.triangular_reconstruct(values, seq)
    worst = np.max(np.abs(recovered - result.coefficients))
    assert worst <= 1e-9, f"uniqueness round trip off by {worst:.3e}"


def check_norm_domination_rows(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    seq = make_sequence("harmonic-shifted", 20)
    f = cauchy_kernel(0.3, m)
    specs = [norms.NormSpec.parse(s) for s in ("hardy:1", "hardy:2", "bergman:2:0")]
    table = schauder.convergence_study(f, seq, 20, specs)
    for label in ("hardy:1", "hardy:2", "bergman:2:0"):
        for x_val, sup_val in zip(table.columns[label], table.columns["sup"]):
            assert x_val <= sup_val + norms.DOMINATION_SLACK, (
                f"{label} = {x_val} exceeds sup = {sup_val}"
            )


def check_kernel_residual_bound(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    seq = make_sequence("harmonic-shifted", 40)
    alpha = 0.3
    result = schauder.expansion_coefficients(cauchy_kernel(alpha, m), seq, 40)
    bounds = schauder.kernel_remainder_bounds(seq.points[:40], alpha)
    for n, (actual, bound) in enumerate(zip(result.residual_sup_norms, bounds[1:]), start=1):
        assert actual <= bound + 1e-9, (
            f"residual {actual:.6e} exceeds kernel bound {bound:.6e} at n={n}"
        )


# --- tmw ---------------------------------------------------------------------

def check_tmw_unit_norms(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_TMW_SAMPLES
    seq = make_sequence("harmonic", 12)
    for n in (1, 4, 9, 12):
        norm = norms.hardy_norm(tmw.tmw_element(seq, n, m), 2.0)
        assert abs(norm - 1.0) <= 1e-8, f"element {n} has H^2 norm {norm}"


def check_gram_identity(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_TMW_SAMPLES
    seq = make_sequence("harmonic", 12)
    gram = tmw.gram_matrix(seq, 12, m)
    worst = np.max(np.abs(gram - np.eye(12)))
    assert worst <= 1e-8, f"Gram matrix deviates from identity by {worst:.3e}"


def check_parseval_on_span(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_TMW_SAMPLES
    seq = make_sequence("harmonic", 10)
    rng = np.random.default_rng(_CORPUS_SEED + 18)
    gammas = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    total = np.zeros(m, dtype=complex)
    for n, gamma in enumerate(gammas, start=1):
        total = total + gamma * tmw.tmw_element(seq, n, m).samples
    lhs = float(np.mean(np.abs(total) ** 2))
    rhs = float(np.sum(np.abs(gammas) ** 2))
    assert abs(lhs - rhs) <= 1e-7 * rhs, f"Parseval mismatch: {lhs} vs {rhs}"


def check_functional_norm_agreement(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_TMW_SAMPLES
    seq = make_sequence("harmonic-shifted", 98)
    for n in (1, 5, 20, 50, 98):
        report = tmw.functional_norm(seq, n, m)
        rel = abs(report.quadrature - report.closed_form) / report.closed_form
        assert rel <= 1e-8, f"functional norm at n={n}: relative gap {rel:.3e}"


def check_witness_values(sample_count: int | None) -> None:
    # the highest-index element's coefficient tail is inflated by the product's
    # growth at the kernel pole, so this check needs the full TMW resolution
    m = sample_count or DEFAULT_TMW_SAMPLES
    seq = make_sequence("harmonic-shifted", 32)
    report = tmw.lacunary_witness(seq, 32, exponent=0.25, support="pow2", sample_count=m)
    for n, c, value in zip(report.support, report.coefficients, report.values):
        lam = seq.points[n - 1]
        expected = c / np.sqrt(1.0 - abs(lam) ** 2)
        assert abs(value - expected) <= 1e-7 * expected, (
            f"witness value at n={n}: {value} vs closed form {expected}"
        )
    # cross terms: the iterate of each off-index term must vanish at lambda_N
    for target in report.support:
        for n in report.support:
            if n == target:
                continue
            element = tmw.tmw_element(seq, n, m)
            iterate = toeplitz.toeplitz_product_apply(
                element, FiniteBlaschkeProduct(seq.points[: target - 1])
            )
            leak = abs(eval_inside(iterate, seq.points[target - 1]))
            assert leak <= 1e-8, f"cross term n={n} leaks {leak:.3e} at N={target}"


# --- norms ---------------------------------------------------------------------

def check_hardy_monotonicity(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    for label, f in reference_corpus(m)[:8]:
        previous = None
        for p in (1.0, 1.5, 2.0, 4.0, 8.0):
            current = norms.hardy_norm(f, p)
            if previous is not None:
                assert previous <= current + 1e-10, (
                    f"{label}: hardy norm not monotone in p ({previous} > {current})"
                )
            previous = current


def check_norms_dominated_by_sup(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    for label, f in reference_corpus(m):
        sup = norms.sup_norm(f)
        for spec_text in ("hardy:1", "hardy:2", "hardy:4", "bergman:2:0", "bergman:1:0.5"):
            value = norms.NormSpec.parse(spec_text).evaluate(f)
            assert value <= sup + norms.DOMINATION_SLACK, (
                f"{label}: {spec_text} = {value} exceeds sup = {sup}"
            )


def check_kernel_hardy2_closed_form(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    for lam in reference_lambdas(8, radius=0.95, seed=_CORPUS_SEED + 19):
        value = norms.hardy_norm(cauchy_kernel(lam, m), 2.0)
        expected = 1.0 / np.sqrt(1.0 - abs(lam) ** 2)
        assert abs(value - expected) <= 1e-8 * expected, (
            f"H^2 norm of kernel at {lam}: {value} vs {expected}"
        )


def check_bergman_node_doubling(sample_count: int | None) -> None:
    m = sample_count or DEFAULT_SAMPLES
    for seed in (_CORPUS_SEED + 20, 52):
        rng = np.random.default_rng(seed)
        f = from_taylor(rng.standard_normal(33) + 1j * rng.standard_normal(33), m)
        for p, alpha in ((2.0, 0.0), (2.0, 0.5)):
            coarse = norms.bergman_norm(f, p, alpha, radial_nodes=64)
            fine = norms.bergman_norm(f, p, alpha, radial_nodes=128)
            assert abs(coarse - fine) <= 1e-9, (
                f"Bergman({p},{alpha}), seed {seed}, moved by {abs(coarse - fine):.3e} on doubling"
            )


@dataclass(frozen=True)
class InvariantCheck:
    module: str
    name: str
    run: Callable[[int | None], None]


CHECKS: tuple[InvariantCheck, ...] = (
    InvariantCheck("fnspace", "taylor-round-trip", check_taylor_round_trip),
    InvariantCheck("fnspace", "riesz-idempotent", check_riesz_idempotent),
    InvariantCheck("fnspace", "pairing-self-adjoint", check_pairing_self_adjoint),
    InvariantCheck("fnspace", "dilation-pairing-symmetry", check_dilation_pairing_symmetry),
    InvariantCheck("fnspace", "eval-matches-cauchy-pairing", check_eval_matches_cauchy_pairing),
    InvariantCheck("blaschke", "unimodularity", check_unimodularity),
    InvariantCheck("blaschke", "kernel-factor-identity", check_kernel_factor_identity),
    InvariantCheck("blaschke", "product-multiplicativity", check_product_multiplicativity),
    InvariantCheck("blaschke", "product-function-agreement", check_product_function_agreement),
    InvariantCheck("toeplitz", "reconstruction-identity", check_reconstruction_identity),
    InvariantCheck("toeplitz", "eigen-relation", check_eigen_relation),
    InvariantCheck("toeplitz", "cross-algorithm-agreement", check_cross_algorithm_agreement),
    InvariantCheck("toeplitz", "composition-order", check_composition_order),
    InvariantCheck("toeplitz", "grid-norm-equality", check_grid_norm_equality),
    InvariantCheck("schauder", "telescoping-identity", check_telescoping_identity),
    InvariantCheck("schauder", "exactness-on-span", check_exactness_on_span),
    InvariantCheck("schauder", "uniqueness-round-trip", check_uniqueness_round_trip),
    InvariantCheck("schauder", "norm-domination-rows", check_norm_domination_rows),
    InvariantCheck("schauder", "kernel-residual-bound", check_kernel_residual_bound),
    InvariantCheck("tmw", "unit-norms", check_tmw_unit_norms),
    InvariantCheck("tmw", "gram-identity", check_gram_identity),
    InvariantCheck("tmw", "parseval-on-span", check_parseval_on_span),
    InvariantCheck("tmw", "functional-norm-agreement", check_functional_norm_agreement),
    InvariantCheck("tmw", "witness-values", check_witness_values),
    InvariantCheck("norms", "hardy-monotonicity", check_hardy_monotonicity),
    InvariantCheck("norms", "dominated-by-sup", check_norms_dominated_by_sup),
    InvariantCheck("norms", "kernel-hardy2-closed-form", check_kernel_hardy2_closed_form),
    InvariantCheck("norms", "bergman-node-doubling", check_bergman_node_doubling),
)

MODULE_NAMES = tuple(dict.fromkeys(check.module for check in CHECKS))


def run_selftest(
    sample_count: int | None = None,
    module_filter: str | None = None,
    stream=None,
) -> int:
    """Run the invariant suite, print one line per check, return an exit code
    (0 iff everything passed). A sample count that is not a power of two
    >= 16 raises PreconditionError before any check runs."""
    stream = stream or sys.stdout
    if sample_count is not None:
        fnspace._validate_sample_count(sample_count)
    if module_filter is not None and module_filter not in MODULE_NAMES:
        print(f"unknown module {module_filter!r}; choose from {', '.join(MODULE_NAMES)}",
              file=stream)
        return 2
    selected = [c for c in CHECKS if module_filter is None or c.module == module_filter]
    first_failure = None
    for check in selected:
        try:
            check.run(sample_count)
        except Exception as exc:  # noqa: BLE001 - every failure mode is a diagnostic here
            print(f"FAIL {check.module}/{check.name}: {exc}", file=stream)
            if first_failure is None:
                first_failure = (check, exc)
        else:
            print(f"PASS {check.module}/{check.name}", file=stream)
    if first_failure is not None:
        check, exc = first_failure
        print(f"first failing invariant: {check.module}/{check.name}: {exc}", file=stream)
        return 1
    return 0
