"""Expansion of analytic functions in finite Blaschke products.

Iterating the zero-extraction recurrence along a non-Blaschke sequence
(lambda_n) of distinct points produces iterates h_n = T_{conj(B_n)} f and
the telescoped representation

    f = sum_{n=0}^{N-1} c_n B_n + R_N f,
    c_n = h_n(lambda_{n+1}) - conj(lambda_n) h_{n-1}(lambda_n),
    R_N f = (-conj(lambda_N) h_{N-1}(lambda_N) + h_N) * B_N,

with the convention that the n = 0 coefficient is just f(lambda_1) (its
second term carries the empty product of index -1, taken as 0). Residual
norms are computed from the closed form for R_N, whose modulus on the
circle equals |h_N + constant| because |B_N| = 1 there; the drift between
f - S_N f and the closed form is tracked separately as
remainder_identity_gap.

Evaluating a candidate expansion at the sequence points yields a lower
triangular linear system (column j is B_j at the points, zero once the
point index passes j), which recovers the coefficients by forward
substitution and gives their uniqueness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .blaschke import (
    FiniteBlaschkeProduct,
    PointSequence,
    SequenceKind,
    blaschke_factor,
    pole_radius,
    product_eval,
    running_products,
)
from .errors import AnalyticityError, PreconditionError
from .fnspace import (
    UNBOUNDED_RADIUS,
    BoundaryFunction,
    eval_inside,  # noqa: F401 - a binding that bench/harness_checks.py inspects
    from_samples,
    samples_at_radius,
    unit_circle_grid,
)
from .norms import (
    DOMINATION_SLACK,
    EMBEDDING_CONSTANT,
    NormSpec,
    bergman_quadrature,
    bergman_radial_rule,
    sup_norm,
)
from .toeplitz import zero_extraction_step

#: Accumulated floating-point drift between f - S_N f and the closed-form
#: remainder beyond this fraction of sup|f| invalidates an expansion.
IDENTITY_GAP_RTOL = 1e-8

_DIAGONAL_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class ExpansionResult:
    """Coefficients and diagnostics of a finite expansion.

    residual_sup_norms[n-1] is the grid sup norm of the closed-form
    remainder after n terms, n = 1..N.
    """

    sequence: PointSequence
    coefficients: np.ndarray
    residual_sup_norms: np.ndarray
    remainder_identity_gap: float
    sample_count: int
    function_label: str = ""

    def __post_init__(self) -> None:
        coeffs = np.array(self.coefficients, dtype=complex)
        residuals = np.array(self.residual_sup_norms, dtype=float)
        coeffs.setflags(write=False)
        residuals.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "residual_sup_norms", residuals)
        if not np.all(np.isfinite(residuals)):
            raise AnalyticityError("non-finite residual norms in expansion")

    def to_jsonable(self) -> dict:
        return {
            "sequence": self.sequence.to_jsonable(),
            "coefficients": [[float(c.real), float(c.imag)] for c in self.coefficients],
            "residual_sup_norms": [float(v) for v in self.residual_sup_norms],
            "remainder_identity_gap": float(self.remainder_identity_gap),
            "meta": {
                "sample_count": self.sample_count,
                "function": self.function_label,
            },
        }


def _require_expandable(seq: PointSequence, n_terms: int) -> None:
    if seq.kind is not SequenceKind.NON_BLASCHKE:
        raise PreconditionError(
            "expansion requires a non-Blaschke sequence; "
            f"got kind {seq.kind.value!r} ({seq.generator_tag})"
        )
    if not 1 <= n_terms <= len(seq):
        raise PreconditionError(
            f"term count {n_terms} outside 1..{len(seq)} (the available prefix)"
        )


def _iterates(f: BoundaryFunction, points: np.ndarray):
    """Walk the Toeplitz chain along the points, holding one iterate at a time.

    Yields, for n = 1..len(points), the evaluation h_{n-1}(lambda_n), the
    shift -conj(lambda_n) h_{n-1}(lambda_n) and the iterate h_n; R_n f is
    (shift + h_n) * B_n, so shift + h_n has the moduli of R_n f on the circle.
    """
    scale = sup_norm(f)
    h = f
    for step, lam in enumerate(points, start=1):
        try:
            value, h = zero_extraction_step(h, lam, scale)
        except AnalyticityError as exc:
            raise AnalyticityError(f"analyticity degraded at step {step}: {exc}") from exc
        yield value, -np.conj(lam) * value, h


def expansion_coefficients(
    f: BoundaryFunction, seq: PointSequence, n_terms: int, function_label: str = ""
) -> ExpansionResult:
    """Compute the first n_terms expansion coefficients of f with residual
    diagnostics.

    Coefficients c_0..c_{n_terms-1} come from evaluating consecutive
    Toeplitz iterates at the sequence points; residual sup norms use the
    closed-form remainder. Analyticity degradation at some step is reported
    with its step index.
    """
    _require_expandable(seq, n_terms)
    points = seq.points[:n_terms]
    evals = np.empty(n_terms, dtype=complex)
    residuals = np.empty(n_terms)
    for n, (value, shift, h) in enumerate(_iterates(f, points)):
        tail = shift + h.samples
        evals[n] = value
        residuals[n] = np.max(np.abs(tail))

    coefficients = np.empty(n_terms, dtype=complex)
    coefficients[0] = evals[0]
    if n_terms > 1:
        coefficients[1:] = evals[1:] - np.conj(points[:-1]) * evals[:-1]

    # Drift between the telescoped identity and the closed-form remainder.
    products = running_products(points, unit_circle_grid(f.sample_count))
    grid_partial = np.zeros(f.sample_count, dtype=complex)
    for c, product in zip(coefficients, products):  # stops before B_N
        grid_partial = grid_partial + c * product
    closed_remainder = tail * next(products)
    gap = float(np.max(np.abs(f.samples - grid_partial - closed_remainder)))
    scale = sup_norm(f)
    if gap > IDENTITY_GAP_RTOL * max(scale, 1e-300):
        raise AnalyticityError(
            f"telescoping drift {gap:.3e} exceeds {IDENTITY_GAP_RTOL:.0e} * sup|f| = "
            f"{IDENTITY_GAP_RTOL * scale:.3e}"
        )
    return ExpansionResult(seq, coefficients, residuals, gap, f.sample_count, function_label)


def partial_sum(result: ExpansionResult, n: int, sample_count: int) -> BoundaryFunction:
    """S_n f = sum_{k<n} c_k B_k as a function on the requested grid."""
    if not 0 <= n <= result.coefficients.size:
        raise PreconditionError(
            f"partial-sum length {n} outside 0..{result.coefficients.size}"
        )
    products = running_products(result.sequence.points[:n], unit_circle_grid(sample_count))
    total = np.zeros(sample_count, dtype=complex)
    for c, product in zip(result.coefficients[:n], products):
        total = total + c * product
    radius = min(
        (pole_radius(z) for z in result.sequence.points[: max(n - 1, 0)]),
        default=UNBOUNDED_RADIUS,
    )
    scale = float(np.sum(np.abs(result.coefficients[:n]))) if n else 0.0
    return from_samples(total, radius, scale_floor=scale)


def remainder_closed_form(f: BoundaryFunction, seq: PointSequence, n: int) -> BoundaryFunction:
    """The closed-form remainder R_n f after n >= 1 expansion terms."""
    if n < 1:
        raise PreconditionError(f"remainder index must be >= 1, got {n}")
    _require_expandable(seq, n)
    for _, shift, h in _iterates(f, seq.points[:n]):
        pass
    product = product_eval(FiniteBlaschkeProduct(seq.points[:n]), unit_circle_grid(f.sample_count))
    return from_samples((shift + h.samples) * product, h.analytic_radius, scale_floor=sup_norm(f))


def triangular_reconstruct(f_values, seq: PointSequence) -> np.ndarray:
    """Recover expansion coefficients from values at the sequence points.

    Solves the lower-triangular system whose (i, j) entry is
    B_j(lambda_{i+1}) by forward substitution. Raises when a diagonal entry
    B_i(lambda_{i+1}) is near zero, which signals near-duplicate points.
    """
    values = np.asarray(f_values, dtype=complex)
    k = values.size
    if not 1 <= k <= len(seq):
        raise PreconditionError(
            f"got {k} values for a sequence prefix of length {len(seq)}"
        )
    points = seq.points[:k]
    matrix = np.zeros((k, k), dtype=complex)
    for i in range(k):
        running = 1.0 + 0.0j
        matrix[i, 0] = running
        for j in range(1, i + 1):
            running *= blaschke_factor(points[j - 1], points[i])
            matrix[i, j] = running
    diagonal_floor = float(np.min(np.abs(np.diag(matrix))))
    if diagonal_floor < _DIAGONAL_FLOOR:
        raise PreconditionError(
            f"near-singular triangular system (min diagonal {diagonal_floor:.3e}); "
            "sequence points are too close together"
        )
    return solve_triangular(matrix, values, lower=True)


@dataclass(frozen=True, eq=False)
class ConvergenceTable:
    """Residual norms tabulated over n for several function-space norms."""

    n_values: list[int]
    columns: dict[str, list[float]]

    def to_csv(self) -> str:
        header = "n," + ",".join(self.columns)
        lines = [header]
        for i, n in enumerate(self.n_values):
            cells = [format(self.columns[label][i], ".12g") for label in self.columns]
            lines.append(f"{n}," + ",".join(cells))
        return "\n".join(lines) + "\n"


def convergence_study(
    f: BoundaryFunction,
    seq: PointSequence,
    n_max: int,
    norm_specs,
    kernel_alpha: complex | None = None,
) -> ConvergenceTable:
    """Tabulate ||R_n f||_X for n = 0..n_max and each requested norm.

    The sup column is always present and, because every implemented norm is
    dominated by it with constant EMBEDDING_CONSTANT, each row is checked
    against that domination. With kernel_alpha set (f being the kernel at
    alpha), a final `bound` column records the closed remainder bound
    (|B_{n-1}(alpha)| + |B_n(alpha)|) / (1 - |alpha|).
    """
    _require_expandable(seq, n_max)
    specs = [s if isinstance(s, NormSpec) else NormSpec.parse(s) for s in norm_specs]
    extra_specs = [s for s in specs if s.label != "sup"]
    points = seq.points[:n_max]
    grid = unit_circle_grid(f.sample_count)

    labels = ["sup"] + [s.label for s in extra_specs]
    columns: dict[str, list[float]] = {label: [] for label in labels}

    # Bergman columns evaluate R_n = (shift + h_n) * B_n on interior circles
    # from its exact factors: the iterate's coefficients give the first part,
    # the rational formula gives the product. No spectral representation of
    # the (possibly heavily-tailed) product is ever formed.
    ring_rules = {
        (s.alpha, s.radial_nodes): bergman_radial_rule(s.alpha, s.radial_nodes)
        for s in extra_specs if s.kind == "bergman"
    }
    ring_products = {
        key: running_products(points, radii[:, None] * grid)
        for key, (radii, _) in ring_rules.items()
    }

    # row 0 is R_0 f = f: no shift, and B_0 = 1
    steps = itertools.chain([(0.0, f)], ((shift, h) for _, shift, h in _iterates(f, points)))
    for n, (shift, h) in enumerate(steps):
        modulated = shift + h.samples
        rings = {
            key: (shift + samples_at_radius(h, radii)) * next(ring_products[key])
            for key, (radii, _) in ring_rules.items()
        }
        sup_val = float(np.max(np.abs(modulated)))
        columns["sup"].append(sup_val)
        for spec in extra_specs:
            if spec.kind == "sup" or (spec.kind == "hardy" and np.isinf(spec.p)):
                val = sup_val
            elif spec.kind == "hardy":
                # |R_n| = |modulated| on the grid since |B_n| = 1 there
                val = float(np.mean(np.abs(modulated) ** spec.p) ** (1.0 / spec.p))
            else:
                key = (spec.alpha, spec.radial_nodes)
                val = bergman_quadrature(rings[key], ring_rules[key][1], spec.p)
            if val > EMBEDDING_CONSTANT * sup_val + DOMINATION_SLACK:
                raise AnalyticityError(
                    f"norm {spec.label} = {val:.12g} exceeds C0 * sup = {sup_val:.12g} "
                    f"at n = {n}"
                )
            columns[spec.label].append(val)

    if kernel_alpha is not None:
        columns["bound"] = list(_kernel_bounds(points, kernel_alpha))
    return ConvergenceTable(list(range(n_max + 1)), columns)


def _kernel_bounds(points: np.ndarray, alpha):
    """Yield (|B_{n-1}(alpha)| + |B_n(alpha)|) / (1 - |alpha|) for
    n = 0..len(points), the index -1 product counting as 0."""
    alpha = complex(alpha)
    previous = 0.0
    for product in running_products(points, alpha):
        yield (previous + abs(product)) / (1.0 - abs(alpha))
        previous = abs(product)


def kernel_remainder_bound(seq: PointSequence, alpha, n: int) -> float:
    """(|B_{n-1}(alpha)| + |B_n(alpha)|) / (1 - |alpha|): the closed bound on
    the remainder sup norm when expanding the kernel at alpha (index -1
    products count as 0)."""
    if not 0 <= n <= len(seq):
        raise PreconditionError(f"index {n} outside 0..{len(seq)}")
    for bound in _kernel_bounds(seq.points[:n], alpha):
        pass
    return float(bound)
