"""A 40-digit reference for the Toeplitz chain and its closed forms.

Everything here runs on `mpmath` numbers and calls nothing of the library:

- `deflation_chain` runs the zero-extraction recurrence on a coefficient list
  by sequential backward deflation, the textbook form of the step that the
  library computes with a doubling scan in double precision;
- `kernel_coefficients` gives the expansion coefficients of the Cauchy kernel
  k_a(z) = 1/(1 - conj(a) z) from the eigen-relation
  T_{conj(B_n)} k_a = conj(B_n(a)) k_a, which needs no chain at all;
- `witness_values` and `functional_norms` are the TMW closed forms
  c_n / sqrt(1 - |lambda_n|^2) and 1 / sqrt(1 - |lambda_n|^2);
- `truncated_kernel_samples` sums the Cauchy kernel's Taylor series up to
  the grid bandwidth M/2 at the exact M-th roots of unity, through the
  geometric-sum formula;
- `squared_product_moduli` multiplies out |B_N(z)|^2 from the factor
  formula (lambda - z)/(1 - conj(lambda) z);
- `gauss_jacobi_rule` is the Gauss rule for the weight (1+x)^alpha on
  [-1, 1] from mpmath's own quadrature routine at 40 digits; at 128 nodes
  and alpha = -0.9 its weights agree to 2e-37 relative with Newton's method
  on the Jacobi polynomials and the closed-form Christoffel numbers.

Inputs are Python or numpy numbers, taken as exact binary values; outputs are
mpmath numbers, so callers choose where to round.

Two double-precision routes stand apart, in numpy and `math` alone:

- `remainder_taylor` gives the Taylor coefficients of the remainder
  R_n = (shift + h_n) B_n by a 2^17-point synthesis of the product, far
  beyond the bandwidth of B_n, so the product does not alias;
- `bergman_norm_from_taylor` is the exact A^2_alpha norm of a function from
  its Taylor coefficients: no radial rule and no angular grid.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

DIGITS = 40


def _mp(z) -> mpmath.mpc:
    return mpmath.mpc(complex(z))


def deflation_chain(coeffs, points):
    """(values, iterates) of the chain h_n = T_{conj(b_{lambda_n})} h_{n-1},
    h_0 = sum_k coeffs[k] z^k: values[n-1] = h_{n-1}(lambda_n) and
    iterates[n-1] the coefficient list of h_n (same length as coeffs)."""
    values, chain = [], []
    with mpmath.workdps(DIGITS):
        a = [_mp(c) for c in coeffs]
        for lam in map(_mp, points):
            b = list(a)
            for k in range(len(b) - 2, -1, -1):
                b[k] += lam * b[k + 1]
            # T f = conj(lam) f(lam) + (conj(lam) z - 1) Q, Q = sum_k b_{k+1} z^k
            conj_lam = mpmath.conj(lam)
            a = [conj_lam * b[k] - (b[k + 1] if k + 1 < len(b) else 0) for k in range(len(b))]
            values.append(b[0])
            chain.append(a)
    return values, chain


def kernel_coefficients(alpha, points):
    """c_0..c_{N-1} of the expansion of k_alpha along lambda_1..lambda_N:
    c_0 = k(lambda_1), c_n = conj(B_n(alpha)) k(lambda_{n+1})
    - conj(lambda_n) conj(B_{n-1}(alpha)) k(lambda_n)."""
    with mpmath.workdps(DIGITS):
        alpha = _mp(alpha)
        lams = [_mp(p) for p in points]

        def kernel(z):
            return 1 / (1 - mpmath.conj(alpha) * z)

        # products[n] = B_n(alpha), n = 0..N-1
        products = [mpmath.mpc(1)]
        for lam in lams[:-1]:
            products.append(products[-1] * (lam - alpha) / (1 - mpmath.conj(lam) * alpha))
        coefficients = [kernel(lams[0])]
        for n in range(1, len(lams)):
            coefficients.append(
                mpmath.conj(products[n]) * kernel(lams[n])
                - mpmath.conj(lams[n - 1]) * mpmath.conj(products[n - 1]) * kernel(lams[n - 1])
            )
    return coefficients


def functional_norms(points):
    """1/sqrt(1 - |lambda|^2) for each point: the norm of evaluating the
    iterate at that point, as a functional on H^2."""
    with mpmath.workdps(DIGITS):
        return [1 / mpmath.sqrt(1 - abs(_mp(p)) ** 2) for p in points]


def witness_values(support, exponent, points):
    """c_n / sqrt(1 - |lambda_n|^2), c_n = n^(-exponent), for each index n
    of the lacunary witness's support and its point lambda_n."""
    with mpmath.workdps(DIGITS):
        return [mpmath.mpf(n) ** (-mpmath.mpf(exponent)) * norm
                for n, norm in zip(support, functional_norms(points))]


def truncated_kernel_samples(lam, sample_count):
    """sum_{k < M/2} (conj(lambda) z)^k = (1 - (conj(lambda) z)^(M/2)) /
    (1 - conj(lambda) z) at z = exp(2 pi i j / M), j = 0..M-1, M =
    sample_count: the roots are exact, not the rounded grid points."""
    with mpmath.workdps(DIGITS):
        w = mpmath.conj(_mp(lam))
        tail = w ** (sample_count // 2)
        out = []
        for j in range(sample_count):
            # z^(M/2) = exp(pi i j)
            wz = w * mpmath.expjpi(mpmath.mpf(2 * j) / sample_count)
            out.append((1 - tail * mpmath.expjpi(j)) / (1 - wz))
    return out


def squared_product_moduli(zeros, points):
    """|B_N(z)|^2 = prod_k |(lambda_k - z)/(1 - conj(lambda_k) z)|^2 for each z."""
    with mpmath.workdps(DIGITS):
        lams = [_mp(lam) for lam in zeros]
        out = []
        for z in map(_mp, points):
            product = mpmath.mpf(1)
            for lam in lams:
                product *= abs((lam - z) / (1 - mpmath.conj(lam) * z)) ** 2
            out.append(product)
    return out


def gauss_jacobi_rule(nodes, alpha):
    """(x, w): the Gauss nodes for the weight (1+x)^alpha on [-1, 1] in
    ascending order and their weights, normalized to sum to 1."""
    with mpmath.workdps(DIGITS):
        x, w = mpmath.gauss_quadrature(nodes, "jacobi", 0, mpmath.mpf(alpha))
        total = mpmath.fsum(w)
        pairs = sorted(zip(x, w))
        return [p[0] for p in pairs], [p[1] / total for p in pairs]


def remainder_taylor(taylor, shift, zeros, sample_count=2 ** 17):
    """Taylor coefficients 0..sample_count/2 - 1 of (shift + h) * B, h the
    polynomial with coefficients `taylor` and B the Blaschke product with
    `zeros`: both factors are sampled on the sample_count-th roots of unity,
    multiplied there and analyzed back."""
    grid = np.exp(2j * np.pi * np.arange(sample_count) / sample_count)
    spectrum = np.zeros(sample_count, dtype=complex)
    spectrum[: len(taylor)] = taylor
    values = np.fft.ifft(spectrum, norm="forward") + shift
    for lam in zeros:
        values *= (lam - grid) / (1 - np.conj(lam) * grid)
    return np.fft.fft(values, norm="forward")[: sample_count // 2]


def bergman_norm_from_taylor(taylor, alpha):
    """(sum_k |g_k|^2 Gamma(k+1) Gamma(alpha+2) / Gamma(k+alpha+2))^(1/2): the
    A^2_alpha norm of g = sum_k g_k z^k for the probability measure
    (1+alpha)(1-|z|^2)^alpha dA/pi, under which ||z^k||^2 is that ratio."""
    base = math.lgamma(alpha + 2)
    weights = np.array([math.exp(math.lgamma(k + 1) + base - math.lgamma(k + alpha + 2))
                        for k in range(len(taylor))])
    return math.sqrt(math.fsum(np.abs(taylor) ** 2 * weights))
