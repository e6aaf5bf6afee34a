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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import PointSequence, SequenceKind, cauchy_kernel, pole_radius, running_products
from .errors import PreconditionError
from .fnspace import BoundaryFunction, eval_inside, from_samples, unit_circle_grid
from .toeplitz import toeplitz_factor_apply

DEFAULT_TMW_SAMPLE_COUNT = 8192


@dataclass(frozen=True, eq=False)
class TMWElement:
    """Element n >= 1 of the TMW system over a point sequence."""

    index: int
    function: BoundaryFunction
    sequence: PointSequence


def _element_samples(seq: PointSequence, n: int, sample_count: int) -> np.ndarray:
    lam = seq.points[n - 1]
    factor = math.sqrt(1.0 - abs(lam) ** 2)
    products = running_products(seq.points[: n - 1], unit_circle_grid(sample_count),
                                factor * cauchy_kernel(lam, sample_count).samples)
    for samples in products:
        pass
    return samples


def tmw_element(seq: PointSequence, n: int, sample_count: int) -> TMWElement:
    """Build sqrt(1 - |lambda_n|^2) B_{n-1} k_{lambda_n} as a function."""
    if not 1 <= n <= len(seq):
        raise PreconditionError(f"element index {n} outside 1..{len(seq)}")
    samples = _element_samples(seq, n, sample_count)
    radius = min(pole_radius(p) for p in seq.points[:n])
    scale = float(np.max(np.abs(samples)))
    return TMWElement(n, from_samples(samples, radius, scale_floor=scale), seq)


def gram_matrix(seq: PointSequence, k: int, sample_count: int) -> np.ndarray:
    """Pairwise discrete H^2 inner products of the first k TMW elements."""
    if not 1 <= k <= len(seq):
        raise PreconditionError(f"Gram size {k} outside 1..{len(seq)}")
    samples = [_element_samples(seq, n, sample_count) for n in range(1, k + 1)]
    gram = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(i, k):
            gram[i, j] = np.mean(samples[i] * np.conj(samples[j]))
            gram[j, i] = np.conj(gram[i, j])
    return gram


@dataclass(frozen=True)
class FunctionalNormComparison:
    quadrature: float
    closed_form: float


def functional_norm(seq: PointSequence, n: int, sample_count: int) -> FunctionalNormComparison:
    """Norm of f -> (iterate over lambda_1..lambda_{n-1} of f)(lambda_n) on H^2.

    Quadrature side: discrete H^2 norm of B_{n-1} k_{lambda_n}; closed form:
    1/sqrt(1 - |lambda_n|^2). The product factor is unimodular on the grid,
    so the two agree up to the kernel's quadrature tail.
    """
    if not 1 <= n <= len(seq):
        raise PreconditionError(f"functional index {n} outside 1..{len(seq)}")
    lam = seq.points[n - 1]
    products = running_products(seq.points[: n - 1], unit_circle_grid(sample_count),
                                cauchy_kernel(lam, sample_count).samples)
    for samples in products:
        pass
    quadrature = float(np.sqrt(np.mean(np.abs(samples) ** 2)))
    closed = 1.0 / math.sqrt(1.0 - abs(lam) ** 2)
    return FunctionalNormComparison(quadrature, closed)


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
    """Expand a support spec: "pow2" gives the powers of two 2,4,8,..<=k_max,
    otherwise a sorted list of distinct indices within 1..k_max."""
    if isinstance(support, str):
        if support != "pow2":
            raise PreconditionError(f"unknown support spec: {support!r}")
        indices = []
        value = 2
        while value <= k_max:
            indices.append(value)
            value *= 2
        if not indices:
            raise PreconditionError(f"no powers of two within 1..{k_max}")
        return indices
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
    indices = resolve_support(support, k_max)
    coefficients = [float(n) ** (-float(exponent)) for n in indices]

    total = np.zeros(sample_count, dtype=complex)
    for n, c in zip(indices, coefficients):
        total = total + c * _element_samples(seq, n, sample_count)
    scale = float(np.max(np.abs(total)))
    radius = min(pole_radius(p) for p in seq.points[: indices[-1]])
    witness_fn = from_samples(total, radius, scale_floor=scale)

    values = []
    iterate = witness_fn
    applied = 0
    for n in indices:
        while applied < n - 1:
            iterate = toeplitz_factor_apply(iterate, seq.points[applied])
            applied += 1
        values.append(abs(eval_inside(iterate, seq.points[n - 1])))

    moduli = [abs(seq.points[n - 1]) for n in indices]
    l2_sum = float(sum(c * c for c in coefficients))
    return LacunaryWitness(witness_fn, indices, coefficients, moduli, values, l2_sum)
