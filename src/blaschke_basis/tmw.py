"""The Takenaka-Malmquist-Walsh system and the sharpness diagnostics.

The TMW elements sqrt(1 - |lambda_n|^2) B_{n-1} k_{lambda_n} built from a
sequence with |lambda_n| -> 1 form an orthonormal basis of H^2. Evaluating
the (N-1)-fold Toeplitz iterate at lambda_N is a bounded functional on H^2
whose norm is ||k_{lambda_N}||_2 = 1/sqrt(1 - |lambda_N|^2); along a
non-Blaschke sequence with |lambda_N| -> 1 these norms blow up, and a
lacunary combination of TMW elements turns the blow-up into concrete
function values: the iterate evaluations equal c_N / sqrt(1 - |lambda_N|^2)
term-exactly, growing without bound while sum c_n^2 stays finite.

The blow-up itself is demonstrated, not proven, at finite scale: the module
reports monotone growth of the witness values across a finite lacunary
support rather than asserting a limit.

All three diagnostics work on the M-point grid. The kernel k_lambda is
sampled in closed form, truncated at the grid bandwidth M/2 like the kernel
`cauchy_kernel` synthesizes; the elements multiply it by the products
B_{n-1} of one `running_products` stream, so each factor is evaluated once
and each element costs one product row. The Gram matrix is one
matrix-vector product per column, and the functional norm is the grid norm
of the truncated kernel alone, since B_{n-1} is unimodular on the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import (
    PointSequence,
    SequenceKind,
    pole_radius,
    running_products,
)
from .errors import PreconditionError
from .fnspace import BoundaryFunction, eval_inside, from_samples, unit_circle_grid
from .toeplitz import iterates

DEFAULT_TMW_SAMPLE_COUNT = 8192


def _truncated_kernel(lam, grid: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Samples on the M-point grid of the kernel k_lambda truncated at the
    grid bandwidth, sum_{k < M/2} conj(lambda)^k z^k: the function that
    `cauchy_kernel(lambda, M)` holds. Written into `out` (complex, M wide)
    when given.

    At z = omega^j the truncated power z^(M/2) is (-1)^j, so the geometric
    sum closes to (1 - conj(lambda)^(M/2) (-1)^j) / (1 - conj(lambda) z):
    one scalar power and one division per sample, no FFT.
    """
    w = np.conj(lam)
    tail = w ** (grid.size // 2)
    samples = np.empty(grid.size, dtype=complex) if out is None else out
    samples[0::2] = 1.0 - tail
    samples[1::2] = 1.0 + tail
    samples /= 1.0 - w * grid
    return samples


def _element_rows(seq: PointSequence, indices, sample_count: int) -> np.ndarray:
    """Samples of the TMW elements n in `indices` (ascending, distinct), one
    row each.

    Row n is the truncated kernel `_truncated_kernel(lambda_n)`, times
    sqrt(1 - |lambda_n|^2), times B_{n-1}, written in place. The products
    come from one `running_products` stream over lambda_1..lambda_{n_max-1}:
    each factor is evaluated once, and each row takes one product row when
    the stream reaches its B_{n-1}.
    """
    grid = unit_circle_grid(sample_count)
    rows = np.empty((len(indices), sample_count), dtype=complex)
    products = enumerate(running_products(seq.points[: indices[-1] - 1], grid))
    for row, n in zip(rows, indices):
        lam = seq.points[n - 1]
        _truncated_kernel(lam, grid, out=row)
        row *= math.sqrt(1.0 - abs(lam) ** 2)
        for degree, product in products:
            if degree == n - 1:
                break
        row *= product
    return rows


def tmw_element(seq: PointSequence, n: int, sample_count: int) -> BoundaryFunction:
    """Build sqrt(1 - |lambda_n|^2) B_{n-1} k_{lambda_n} as a function."""
    if not 1 <= n <= len(seq):
        raise PreconditionError(f"element index {n} outside 1..{len(seq)}")
    samples = _element_rows(seq, [n], sample_count)[0]
    return from_samples(samples, pole_radius(seq.points[:n]))


def gram_matrix(seq: PointSequence, k: int, sample_count: int) -> np.ndarray:
    """Pairwise discrete H^2 inner products of the first k TMW elements,
    G[i, j] = mean over the grid of e_i conj(e_j).

    Column i on and below the diagonal is one matrix-vector product of the
    rows i.. with conj(row i); the entries above it are the conjugates. One
    product of the whole block saves little time and needs a conjugated copy
    of the rows or BLAS packing buffers on top of them.
    """
    if not 1 <= k <= len(seq):
        raise PreconditionError(f"Gram size {k} outside 1..{len(seq)}")
    samples = _element_rows(seq, range(1, k + 1), sample_count)
    gram = np.empty((k, k), dtype=complex)
    for i in range(k):
        gram[i:, i] = samples[i:] @ np.conj(samples[i])
        gram[i, i + 1:] = np.conj(gram[i + 1:, i])
    gram /= sample_count
    return gram


@dataclass(frozen=True)
class FunctionalNormComparison:
    quadrature: float
    closed_form: float


def functional_norm(seq: PointSequence, n: int, sample_count: int) -> FunctionalNormComparison:
    """Norm of f -> (iterate over lambda_1..lambda_{n-1} of f)(lambda_n) on H^2.

    Quadrature side: discrete H^2 norm of B_{n-1} k_{lambda_n}. B_{n-1} is
    unimodular on the circle, so this is the square root of the grid mean of
    |k_{lambda_n}|^2 alone, with the kernel from `_truncated_kernel`; no
    factor is evaluated. Multiplying in the grid values of |B_{n-1}|^2 would
    add only their rounding; the Gram diagonal, which holds the squared
    norms of the full elements, still exercises them. Closed form:
    1/sqrt(1 - |lambda_n|^2). The two agree up to the kernel's truncation
    tail |lambda_n|^M.
    """
    if not 1 <= n <= len(seq):
        raise PreconditionError(f"functional index {n} outside 1..{len(seq)}")
    lam = seq.points[n - 1]
    kernel = _truncated_kernel(lam, unit_circle_grid(sample_count))
    quadrature = float(np.sqrt(np.mean(np.abs(kernel) ** 2)))
    return FunctionalNormComparison(quadrature, 1.0 / math.sqrt(1.0 - abs(lam) ** 2))


@dataclass(frozen=True, eq=False)
class LacunaryWitness:
    """A finite lacunary combination of TMW elements and its iterate values."""

    function: BoundaryFunction
    support: list[int]
    coefficients: list[float]
    lambda_modulus: list[float]
    values: list[float]
    l2_partial_sum: float

    def to_jsonable(self) -> dict:
        return {
            "support": list(self.support),
            "c": [float(c) for c in self.coefficients],
            "lambda_modulus": [float(v) for v in self.lambda_modulus],
            "values": [float(v) for v in self.values],
            "l2_partial_sum": float(self.l2_partial_sum),
        }


def resolve_support(support, k_max: int) -> list[int]:
    """Expand a support spec: "pow2" gives the powers of two 2,4,8,..<=k_max;
    indices, as a list or as comma-separated text ("2,3,5"), give a sorted
    list of distinct indices within 1..k_max."""
    if isinstance(support, str):
        if support == "pow2":
            indices = []
            value = 2
            while value <= k_max:
                indices.append(value)
                value *= 2
            if not indices:
                raise PreconditionError(f"no powers of two within 1..{k_max}")
            return indices
        try:
            support = [int(part) for part in support.split(",")]
        except ValueError:
            raise PreconditionError(
                f"unknown support spec {support!r}: expected 'pow2' or comma-separated indices"
            ) from None
    indices = sorted({int(i) for i in support})
    if not indices:
        raise PreconditionError("empty witness support")
    if indices[0] < 1 or indices[-1] > k_max:
        raise PreconditionError(
            f"support {indices} exceeds the available range 1..{k_max}"
        )
    return indices


def lacunary_witness(
    seq: PointSequence,
    k_max: int,
    exponent: float = 0.25,
    support="pow2",
    sample_count: int = DEFAULT_TMW_SAMPLE_COUNT,
) -> LacunaryWitness:
    """Build f = sum over the support of c_n * (TMW element n) with
    c_n = n^(-exponent), and report |iterate_{n-1} f (lambda_n)| over the
    support.

    Each reported value equals c_n / sqrt(1 - |lambda_n|^2) because the
    iterates kill lower-index terms (their retained product factor vanishes
    at lambda_n) and annihilate the kernel of the matching index, so cross
    terms cancel exactly. Requires a non-Blaschke sequence whose generator
    certifies |lambda_n| -> 1.
    """
    if seq.kind is not SequenceKind.NON_BLASCHKE:
        raise PreconditionError(
            f"witness needs a non-Blaschke sequence, got {seq.generator_tag!r}"
        )
    if not seq.modulus_to_one:
        raise PreconditionError(
            f"witness needs |lambda_n| -> 1, which generator {seq.generator_tag!r} "
            "does not certify"
        )
    if not 1 <= k_max <= len(seq):
        raise PreconditionError(f"k_max {k_max} outside 1..{len(seq)}")
    if not math.isfinite(exponent):
        raise PreconditionError(f"witness exponent must be finite, got {exponent!r}")
    indices = resolve_support(support, k_max)
    coefficients = [float(n) ** (-float(exponent)) for n in indices]

    total = np.zeros(sample_count, dtype=complex)
    for c, row in zip(coefficients, _element_rows(seq, indices, sample_count)):
        total += c * row
    witness_fn = from_samples(total, pole_radius(seq.points[: indices[-1]]))

    # the chain's own evaluations: step n yields iterate_{n-1} f (lambda_n);
    # the last is taken without building iterate_kmax, which no value reads
    points = seq.points[: indices[-1]]
    h, evaluations = witness_fn, []
    for value, h in iterates(witness_fn, points[:-1]):
        evaluations.append(abs(value))
    evaluations.append(abs(eval_inside(h, points[-1])))
    values = [evaluations[n - 1] for n in indices]

    moduli = [abs(seq.points[n - 1]) for n in indices]
    l2_sum = float(sum(c * c for c in coefficients))
    return LacunaryWitness(witness_fn, indices, coefficients, moduli, values, l2_sum)
