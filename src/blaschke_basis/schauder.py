"""Expansion of analytic functions in finite Blaschke products.

Iterating the zero-extraction recurrence (on Taylor coefficients, see
`toeplitz`) along a non-Blaschke sequence (lambda_n) of distinct points
produces iterates h_n = T_{conj(B_n)} f and the telescoped representation

    f = sum_{n=0}^{N-1} c_n B_n + R_N f,
    c_n = h_n(lambda_{n+1}) - conj(lambda_n) h_{n-1}(lambda_n),
    R_N f = (-conj(lambda_N) h_{N-1}(lambda_N) + h_N) * B_N,

with the convention that the n = 0 coefficient is just f(lambda_1) (its
second term carries the empty product of index -1, taken as 0). Residual
norms are computed from the closed form for R_N, whose modulus on the
circle equals |h_N + constant| because |B_N| = 1 there (the Bergman norms,
on interior circles, come from `norms.BergmanRings`); the drift between
f and S_N f + R_N f, evaluated on the grid in nested form
c_0 + b_1 (c_1 + b_2 (... + b_N (shift + h_N))) by `blaschke.nested_sum`,
is tracked separately as remainder_identity_gap, a cross-check of the
coefficient chain by a route that shares no arithmetic with it (partial
sums take a zero tail there).

Evaluating a candidate expansion at the sequence points yields a lower
triangular linear system (column j is B_j at the points, zero once the
point index passes j), which recovers the coefficients by forward
substitution and gives their uniqueness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .blaschke import (
    PointSequence,
    SequenceKind,
    blaschke_factor,
    nested_sum,
    pole_radius,
    running_products,
)
from .errors import AnalyticityError, PreconditionError
from .fnspace import BoundaryFunction, _synthesize, from_samples
from .norms import DOMINATION_SLACK, EMBEDDING_CONSTANT, BergmanRings, NormSpec, sup_norm
from .toeplitz import iterates

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


def _remainders(f: BoundaryFunction, points):
    """Yield (h_{n-1}(lambda_n), shift, h_n, tail, sup) for n = 1..len(points):
    tail = shift + h_n on the grid (|R_n f| there, as |B_n| = 1), pruned
    synthesis into one buffer that each step overwrites, and sup its max."""
    tail = np.empty(f.sample_count, dtype=complex)
    magnitude = np.empty(f.sample_count)
    for lam, (value, h) in zip(points, iterates(f, points)):
        shift = -np.conj(lam) * value
        _synthesize(h.taylor, h.live_length, out=tail)
        tail += shift
        yield value, shift, h, tail, float(np.max(np.abs(tail, out=magnitude)))


def expansion_coefficients(
    f: BoundaryFunction, seq: PointSequence, n_terms: int, function_label: str = ""
) -> ExpansionResult:
    """Compute the first n_terms expansion coefficients of f with residual
    diagnostics.

    Coefficients c_0..c_{n_terms-1} come from evaluating consecutive
    Toeplitz iterates at the sequence points; residual sup norms use the
    closed-form remainder. The coefficient chain is cross-checked against
    the telescoped identity evaluated factor by factor on the grid, and a
    drift beyond IDENTITY_GAP_RTOL * sup|f| is reported.
    """
    _require_expandable(seq, n_terms)
    points = seq.points[:n_terms]
    evals = np.empty(n_terms, dtype=complex)
    residuals = np.empty(n_terms)
    for n, (value, _, h, tail, sup) in enumerate(_remainders(f, points)):
        evals[n], residuals[n] = value, sup
    # the last iterate lives on in `tail` alone: free its coefficients before
    # the grid pass below allocates its factor arrays
    del h

    coefficients = np.empty(n_terms, dtype=complex)
    coefficients[0] = evals[0]
    if n_terms > 1:
        coefficients[1:] = evals[1:] - np.conj(points[:-1]) * evals[:-1]

    # the chain works on Taylor coefficients and this identity on the grid, so
    # the drift between them is measured by routes that share no arithmetic
    identity = nested_sum(points, coefficients, tail)
    identity -= f.samples
    gap = float(np.max(np.abs(identity)))
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
    points, coefficients = result.sequence.points[:n], result.coefficients[:n]
    total = nested_sum(points, coefficients, np.zeros(sample_count, dtype=complex))
    scale = float(np.sum(np.abs(coefficients)))
    return from_samples(total, pole_radius(points[:-1]), scale_floor=scale)


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
    coefficients = np.empty(k, dtype=complex)
    for i in range(k):  # forward substitution, one row at a time
        coefficients[i] = (values[i] - matrix[i, :i] @ coefficients[:i]) / matrix[i, i]
    return coefficients


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
    (|B_{n-1}(alpha)| + |B_n(alpha)|) / (1 - |alpha|). Two specs with one
    label (hardy:2 and hardy:2.0, or Bergman specs that differ only in
    radial_nodes) would share a column, so they are rejected.
    """
    _require_expandable(seq, n_max)
    specs = [s if isinstance(s, NormSpec) else NormSpec.parse(s) for s in norm_specs]
    requested = [s.label for s in specs]
    repeated = sorted({label for label in requested if requested.count(label) > 1})
    if repeated:
        raise PreconditionError(
            f"norm {', '.join(repeated)} requested more than once; "
            "each column needs a distinct label"
        )
    extra_specs = [s for s in specs if s.label != "sup"]
    points = seq.points[:n_max]

    columns = {label: [] for label in ["sup", *(s.label for s in extra_specs)]}
    rings = BergmanRings(extra_specs, points, f.sample_count)

    # row 0 is R_0 f = f: no shift, and B_0 = 1
    first = (0.0, f, f.samples, sup_norm(f))
    steps = itertools.chain([first], (step[1:] for step in _remainders(f, points)))
    for n, (shift, h, tail, sup_val) in enumerate(steps):
        ring_norms = rings.step(shift, h)
        columns["sup"].append(sup_val)
        for spec in extra_specs:
            val = ring_norms[spec.label] if spec.label in ring_norms else spec.from_values(tail)
            if val > EMBEDDING_CONSTANT * sup_val + DOMINATION_SLACK:
                raise AnalyticityError(
                    f"norm {spec.label} = {val:.12g} exceeds C0 * sup = {sup_val:.12g} "
                    f"at n = {n}"
                )
            columns[spec.label].append(val)

    if kernel_alpha is not None:
        columns["bound"] = kernel_remainder_bounds(points, kernel_alpha)
    return ConvergenceTable(list(range(n_max + 1)), columns)


def kernel_remainder_bounds(points, alpha) -> list[float]:
    """(|B_{n-1}(alpha)| + |B_n(alpha)|) / (1 - |alpha|) for n = 0..len(points):
    the closed bound on the remainder sup norm after n terms when expanding
    the kernel at alpha, from one running-product pass (the index -1 product
    counts as 0)."""
    alpha = complex(alpha)
    moduli = [0.0] + [abs(product) for product in running_products(points, alpha)]
    return [float((previous + current) / (1.0 - abs(alpha)))
            for previous, current in zip(moduli, moduli[1:])]
