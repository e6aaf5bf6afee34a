"""Conjugate-analytic Toeplitz operators T applied through an exact recurrence.

For a single factor the operator with symbol conj(b_lambda) acts on Taylor
coefficients by zero extraction:

    T f = conj(lambda) f(lambda) + (conj(lambda) z - 1) Q,
    Q = (f - f(lambda)) / (z - lambda).

One backward deflation b_k = a_k + lambda b_{k+1} of the coefficients
(`fnspace.deflate`, also the library's point evaluator) gives both
f(lambda) = b_0 and the coefficients b_1, b_2, ... of Q; the pass is stable
for |lambda| < 1 (Wilkinson, Rounding Errors in Algebraic Processes, 1963)
and maps a polynomial of degree d to one of degree at most d, so it is
exact on polynomials and introduces no aliasing. The step exploits that:
it deflates only the d live coefficients (past them every b_k is a sum of
exact zeros, so the result is bitwise that of the full-width pass) and the
iterate inherits d as the bound of its own live length, so a chain never
scans or copies the dead tail of its M/2 bins. Products of factors act by
walking the chain of single-factor steps in `iterates`, the one loop over
the recurrence.

Two independent routes are kept as oracles: the grid formula
T f = (f - f(lambda) (1 - conj(lambda) b_lambda)) / b_lambda on the circle
(in `factor_sup_bound_check`) and the projection P(conj(symbol) f) in
`toeplitz_general_apply`.
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
    deflate,
    dilate,
    from_taylor,
    point_value,
    riesz_project,
    unit_circle_grid,
)
from .norms import BoundCheck, hardy_norm, sup_norm


def zero_extraction_step(f: BoundaryFunction, lam) -> tuple[complex, BoundaryFunction]:
    """One step of the recurrence: (f(lambda), T f) for the symbol conj(b_lambda).

    Both come from one deflation of f's live Taylor coefficients, so each
    composition step is self-contained and a polynomial keeps its degree:
    T f's live length is at most f's. The result extends analytically past
    the circle; the radius is propagated conservatively as
    min(f.analytic_radius, 1/|lambda|).
    """
    lam = point_value(lam)
    b = deflate(f.taylor[: f.live_length], lam)
    # Q has coefficients b_1, b_2, ..., so t_k = conj(lambda) b_k - b_{k+1}
    t = np.conj(lam) * b
    t[:-1] -= b[1:]
    radius = min(f.analytic_radius, pole_radius([lam]))
    return complex(b[0]), from_taylor(t, f.sample_count, radius)


def iterates(f: BoundaryFunction, points):
    """Walk the Toeplitz chain h_n = T_{conj(B_n)} f along the points, holding
    one iterate at a time.

    Yields, for n = 1..len(points), the evaluation h_{n-1}(lambda_n) and the
    iterate h_n; with shift = -conj(lambda_n) h_{n-1}(lambda_n), R_n f is
    (shift + h_n) * B_n, so shift + h_n has the moduli of R_n f on the circle.
    """
    h = f
    for lam in points:
        value, h = zero_extraction_step(h, lam)
        yield value, h


def toeplitz_product_apply(f: BoundaryFunction, product: FiniteBlaschkeProduct) -> BoundaryFunction:
    """Apply the operator with symbol conj(B): the last iterate of the chain
    over the zeros in order; the empty product returns f itself."""
    result = f
    for _, result in iterates(f, product.zeros):
        pass
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
class FactorBoundCheck(BoundCheck):
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
    norm equals the numerator norm sample-for-sample on the grid.

    T f comes from the coefficient recurrence and the numerator
    f - f(lambda)(1 - conj(lambda) b_lambda) from the grid, so the equality
    check compares two independent routes."""
    lam = point_value(lam)
    value, applied = zero_extraction_step(f, lam)
    b = blaschke_factor(lam, unit_circle_grid(f.sample_count))
    numerator = f.samples - value * (1.0 - np.conj(lam) * b)
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
