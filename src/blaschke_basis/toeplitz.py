"""Conjugate-analytic Toeplitz operators T applied through an exact recurrence.

For a single factor the operator with symbol conj(b_lambda) is computed by
zero extraction:

    T f = (f - f(lambda) * (1 - conj(lambda) b_lambda)) / b_lambda,

evaluated sample-wise on the circle, where |b_lambda| = 1 makes the division
stable; the numerator vanishes at lambda, so the quotient is analytic. This
route is alias-free and exact on polynomials. The projection route
P(conj(symbol) * f) is kept as an independent cross-check, and products of
factors act by composing the single-factor operators.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .blaschke import FiniteBlaschkeProduct, blaschke_factor, pole_radius
from .errors import AnalyticityError, PreconditionError
from .fnspace import (
    ANALYTICITY_RTOL,
    BoundaryFunction,
    dilate,
    eval_inside,
    from_samples,
    point_value,
    riesz_project,
    unit_circle_grid,
)
from .norms import hardy_norm, sup_norm


def zero_extraction_step(f: BoundaryFunction, lam, scale_floor: float) -> tuple[complex, BoundaryFunction]:
    """One step of the recurrence: (f(lambda), T f) for the symbol conj(b_lambda).

    f(lambda) is taken from f's Taylor coefficients so each composition step
    is self-contained. The result extends analytically past the circle; the
    radius is propagated conservatively as min(f.analytic_radius, 1/|lambda|).
    Its analyticity is judged against scale_floor (see `from_samples`), which
    a chain holds at the scale of its first input.
    """
    lam = point_value(lam)
    b = blaschke_factor(lam, unit_circle_grid(f.sample_count))
    value = eval_inside(f, lam)
    quotient = (f.samples - value * (1.0 - np.conj(lam) * b)) / b
    radius = min(f.analytic_radius, pole_radius(lam))
    return value, from_samples(quotient, radius, scale_floor=scale_floor)


def toeplitz_factor_apply(f: BoundaryFunction, lam) -> BoundaryFunction:
    """Apply the operator with symbol conj(b_lambda) by the zero-extraction
    recurrence, judging analyticity against sup|f|."""
    return zero_extraction_step(f, lam, sup_norm(f))[1]


def toeplitz_product_apply(f: BoundaryFunction, product: FiniteBlaschkeProduct) -> BoundaryFunction:
    """Apply the operator with symbol conj(B) by composing the factor
    operators over the zeros in order; the empty product is the identity."""
    result = f
    for zero in product.zeros:
        result = toeplitz_factor_apply(result, zero)
    return result


def toeplitz_general_apply(f: BoundaryFunction, symbol_samples) -> BoundaryFunction:
    """Projection-route operator with symbol conj(phi): P(conj(phi) * f).

    Exact on the grid up to aliasing; energy piling up near the spectral
    edge of the product triggers a warning because wrapped frequencies
    contaminate the projection.
    """
    phi = np.asarray(symbol_samples, dtype=complex)
    if phi.shape != f.samples.shape:
        raise PreconditionError(
            f"symbol has {phi.size} samples, function has {f.sample_count}"
        )
    weighted = np.conj(phi) * f.samples
    spectrum = np.fft.fft(weighted) / weighted.size
    m = weighted.size
    guard = slice(3 * m // 8, 5 * m // 8)
    edge = float(np.max(np.abs(spectrum[guard])))
    scale = float(np.max(np.abs(weighted)))
    if edge > ANALYTICITY_RTOL * scale:
        warnings.warn(
            f"symbol-times-function spectrum holds {edge:.3e} near the Nyquist edge "
            f"(scale {scale:.3e}); the projection may be contaminated by aliasing",
            RuntimeWarning,
            stacklevel=2,
        )
    return riesz_project(weighted)


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class FactorBoundCheck:
    lhs: float
    rhs: float
    holds: bool
    #: | sup|T f| - sup|f - f(lambda)(1 - conj(lambda) b)| | on the grid; the
    #: two sample vectors differ by a unimodular factor, so this is roundoff.
    grid_equality_gap: float


def dilation_sup_bound_check(
    f: BoundaryFunction, product: FiniteBlaschkeProduct, dilation_radius: float
) -> BoundCheck:
    """Check sup|T f| <= (R/(R-1)) * ||f_R||_{H^1} for a Blaschke symbol.

    The symbol's sup norm is 1, so it drops out of the right-hand side.
    Requires 1 < R < f.analytic_radius; the two sides are computed by
    unrelated code paths (factor recurrence vs dilation plus quadrature).
    """
    big_r = float(dilation_radius)
    if not 1.0 < big_r < f.analytic_radius:
        raise PreconditionError(
            f"dilation radius {big_r!r} outside (1, analytic_radius={f.analytic_radius:g})"
        )
    lhs = sup_norm(toeplitz_product_apply(f, product))
    rhs = big_r / (big_r - 1.0) * hardy_norm(dilate(f, big_r), 1.0)
    return BoundCheck(lhs, rhs, lhs <= rhs)


def factor_sup_bound_check(f: BoundaryFunction, lam) -> FactorBoundCheck:
    """Check sup|T_{conj(b_lambda)} f| <= 3 sup|f|, and that the operator
    norm equals the numerator norm sample-for-sample on the grid."""
    lam = point_value(lam)
    grid = unit_circle_grid(f.sample_count)
    b = blaschke_factor(lam, grid)
    value = eval_inside(f, lam)
    numerator = f.samples - value * (1.0 - np.conj(lam) * b)
    applied = toeplitz_factor_apply(f, lam)
    lhs = sup_norm(applied)
    numerator_sup = float(np.max(np.abs(numerator)))
    rhs = 3.0 * sup_norm(f)
    gap = abs(lhs - numerator_sup)
    if gap > 1e-10 * max(rhs, 1.0):
        raise AnalyticityError(
            f"grid norms of T f and its numerator differ by {gap:.3e}; "
            "division by the unimodular factor should preserve sample moduli"
        )
    return FactorBoundCheck(lhs, rhs, lhs <= rhs, gap)
