"""Function-space norms on the boundary grid: sup, Hardy H^p, weighted Bergman.

All measures are normalized to probability measures (dm on the circle, the
weighted area measure (1+alpha)(1-|z|^2)^alpha dA/pi on the disk), so the
constant 1 has norm 1 everywhere and every implemented norm is dominated by
the sup norm with embedding constant 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blaschke import running_squared_moduli
from .errors import PreconditionError
from .fnspace import MIN_SAMPLE_COUNT, BoundaryFunction, unit_circle_grid

#: Every implemented norm satisfies ||f||_X <= EMBEDDING_CONSTANT * ||f||_sup
#: thanks to the probability normalizations.
EMBEDDING_CONSTANT = 1.0

DOMINATION_SLACK = 1e-10

DEFAULT_RADIAL_NODES = 64
_MAX_RADIAL_NODES = 1024  # the rule builds dense nodes x nodes matrices

#: Angular tolerance eps of the Bergman rings: a circle of radius r gets the
#: smallest power-of-two grid with r^{M_r} <= eps^2 (`ring_sample_counts`).
RING_TOLERANCE = 1e-17

_UNIT_ROUNDOFF = 2.0 ** -53


def sup_norm(f: BoundaryFunction) -> float:
    """Maximum modulus over the boundary samples (the H^infinity norm for
    the analytic functions represented here, by the maximum principle)."""
    return SUP.from_values(f.samples)


def hardy_norm(f: BoundaryFunction, p: float) -> float:
    """H^p norm, 1 <= p < infinity, by trapezoid quadrature on the boundary.

    For analytic f the radial sup defining H^p is attained at the boundary.
    """
    p = float(p)
    if not (1.0 <= p < math.inf):
        raise PreconditionError(f"hardy_norm requires 1 <= p < inf, got {p!r}")
    return NormSpec("hardy", p).evaluate(f)


def _jacobi_recurrence(x: np.ndarray, diagonal: np.ndarray, off: np.ndarray):
    """(p_n(x), p_n'(x), sum_{k<n} p_k(x)^2) for the orthonormal polynomials
    of the recurrence off[k+1] p_{k+1} = (x - diagonal[k]) p_k - off[k] p_{k-1},
    p_0 = 1, n = diagonal.size."""
    previous, current = np.zeros_like(x), np.ones_like(x)
    d_previous, d_current = np.zeros_like(x), np.zeros_like(x)
    squares = np.zeros_like(x)
    for k in range(diagonal.size):
        squares += current * current
        shifted = x - diagonal[k]
        previous, current, d_previous, d_current = (
            current,
            (shifted * current - off[k] * previous) / off[k + 1],
            d_current,
            (shifted * d_current + current - off[k] * d_previous) / off[k + 1],
        )
    return current, d_current, squares


def gauss_jacobi(nodes: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes x (ascending) and weights on [-1, 1] for the weight
    (1+x)^alpha, the weights normalized to sum to 1.

    Golub-Welsch (Math. Comp. 1969): the nodes are the eigenvalues of the
    Jacobi matrix of the orthonormal Jacobi polynomials, polished by two
    Newton steps on their three-term recurrence (as in Hale & Townsend,
    SIAM J. Sci. Comput. 2013). Each weight is the Christoffel number
    1 / sum_{k<n} p_k(x_i)^2, from the same recurrence at the polished
    node: a sum of squares with no nearby zero, so it stays accurate where
    formulas through p_{n-1}(x_i) or p_n'(x_i) lose digits to node error.
    From alpha near 1e18 on the rule breaks down: a PreconditionError.
    """
    with np.errstate(all="ignore"):  # a rule that breaks down fails below
        k = np.arange(1, nodes + 1, dtype=float)
        s = 2.0 * k + alpha
        diagonal = np.empty(nodes)
        diagonal[0] = alpha / (alpha + 2.0)
        diagonal[1:] = alpha * alpha / (s[:-1] * (s[:-1] + 2.0))
        # off[k] = sqrt(4 k^2 (k + alpha)^2 / (s^2 (s^2 - 1))), s = 2k + alpha; off[0] unused
        off = np.concatenate(([0.0], 2.0 * k * (k + alpha) / (s * np.sqrt(s * s - 1.0))))
        jacobi = np.diag(diagonal) + np.diag(off[1:nodes], 1) + np.diag(off[1:nodes], -1)
        try:
            x = np.linalg.eigvalsh(jacobi)
        except np.linalg.LinAlgError:
            x = np.full(nodes, np.nan)
        for _ in range(2):
            value, derivative, _ = _jacobi_recurrence(x, diagonal, off)
            x = x - value / derivative
        christoffel = 1.0 / _jacobi_recurrence(x, diagonal, off)[2]
        weights = christoffel / math.fsum(christoffel)
    if not (np.isfinite(x).all() and np.isfinite(weights).all()):
        raise PreconditionError(f"Bergman weight alpha = {alpha!r} has no finite "
                                f"{nodes}-node Gauss-Jacobi rule in double precision")
    return x, weights


@lru_cache(maxsize=32)
def bergman_radial_rule(alpha: float, radial_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii and weights integrating g -> int_0^1 g(r) (1+a)(1-r^2)^a 2r dr.

    Gauss nodes in the variable u = 1 - r^2 with the weight u^alpha absorbed
    into the rule (`gauss_jacobi`; plain Gauss-Legendre for alpha = 0), so
    non-integer alpha costs no accuracy. The weights sum to 1, the measure's
    mass. The arrays are cached and read-only.
    """
    x, weights = gauss_jacobi(radial_nodes, alpha)
    u = (1.0 + x) / 2.0
    radii = np.sqrt(1.0 - u)
    radii.setflags(write=False)
    weights.setflags(write=False)
    return radii, weights


def ring_sample_counts(radii: np.ndarray, sample_count: int) -> np.ndarray:
    """The angular grid M_r of each Bergman circle of radius r in `radii`: the
    smallest power of two >= 2 ln(eps) / ln(r), eps = RING_TOLERANCE, so that
    r^{M_r} <= eps^2, kept within MIN_SAMPLE_COUNT..M (M = sample_count).
    The trapezoid rule on a circle converges like r^{M_r} for the squared
    modulus of an analytic function (see `BergmanRings`)."""
    with np.errstate(divide="ignore"):  # r = 0 needs no points, r = 1 all M
        need = np.where(radii < 1.0, 2.0 * np.log(RING_TOLERANCE) / np.log(radii), np.inf)
    doublings = np.ceil(np.log2(np.maximum(need / MIN_SAMPLE_COUNT, 1.0)))
    return np.minimum(sample_count, MIN_SAMPLE_COUNT * 2.0 ** doublings).astype(int)


def bergman_norm(
    f: BoundaryFunction,
    p: float,
    alpha: float = 0.0,
    radial_nodes: int = DEFAULT_RADIAL_NODES,
) -> float:
    """Weighted Bergman norm (integral of |f|^p (1+a)(1-|z|^2)^a dA/pi)^(1/p)."""
    return NormSpec("bergman", float(p), float(alpha), radial_nodes).evaluate(f)


@dataclass(frozen=True)
class NormSpec:
    """A norm selector: sup, hardy:p, or bergman:p:alpha[:radial_nodes]."""

    kind: str
    p: float = math.inf
    alpha: float = 0.0
    radial_nodes: int = DEFAULT_RADIAL_NODES

    def __post_init__(self) -> None:
        if self.kind not in ("sup", "hardy", "bergman"):
            raise PreconditionError(f"unknown norm kind: {self.kind!r}")
        if self.kind != "sup" and not self.p >= 1.0:
            raise PreconditionError(f"norm exponent must satisfy p >= 1, got {self.p!r}")
        if self.kind == "bergman" and not self.alpha > -1.0:
            raise PreconditionError(f"Bergman weight needs alpha > -1, got {self.alpha!r}")
        if self.kind == "bergman" and not 1 <= self.radial_nodes <= _MAX_RADIAL_NODES:
            raise PreconditionError(f"Bergman radial_nodes must lie in "
                                    f"1..{_MAX_RADIAL_NODES}, got {self.radial_nodes!r}")

    @classmethod
    def parse(cls, text: str) -> "NormSpec":
        parts = text.strip().split(":")
        try:
            if parts[0] == "sup" and len(parts) == 1:
                return cls("sup")
            if parts[0] == "hardy" and len(parts) == 2:
                return cls("hardy", p=float(parts[1]))
            if parts[0] == "bergman" and len(parts) in (3, 4):
                nodes = int(parts[3]) if len(parts) == 4 else DEFAULT_RADIAL_NODES
                return cls("bergman", p=float(parts[1]), alpha=float(parts[2]),
                           radial_nodes=nodes)
        except ValueError as exc:
            raise PreconditionError(f"bad norm spec {text!r}: {exc}") from exc
        raise PreconditionError(
            f"bad norm spec {text!r}; expected sup, hardy:p or bergman:p:alpha"
        )

    @property
    def label(self) -> str:
        if self.kind == "sup":
            return "sup"
        if self.kind == "hardy":
            return f"hardy:{self.p:g}"
        return f"bergman:{self.p:g}:{self.alpha:g}"

    def from_values(self, boundary: np.ndarray) -> float:
        """The norm from boundary samples (a p = inf norm is the sup over the
        disk, by the maximum principle); finite-p Bergman needs `BergmanRings`."""
        if self.kind == "sup" or self.p == math.inf:
            return float(np.max(np.abs(boundary)))
        if self.kind == "bergman":
            raise PreconditionError(f"{self.label} needs the disk: see BergmanRings")
        return float(np.mean(np.abs(boundary) ** self.p) ** (1.0 / self.p))

    def evaluate(self, f: BoundaryFunction) -> float:
        """The norm of f, a finite-p Bergman norm from `BergmanRings`."""
        rings = BergmanRings([self], (), f.sample_count).step(0.0, f)
        return rings[self.label] if rings else self.from_values(f.samples)


SUP = NormSpec("sup")


class BergmanRings:
    """The Gauss-trapezoid Bergman quadrature of R_n = (shift + h_n) * B_n,
    B_n the product over the first n `zeros`, one chain step at a time, from
    |R_n|^2 = |shift + h_n|^2 * |B_n|^2 on the circles of each finite-p
    Bergman spec's radial rule; specs on one set of circles share them.
    `step` must be called for n = 0, 1, ... in order; a standalone norm is
    the step n = 0 with no zeros.

    Circle r gets M_r equispaced points (`ring_sample_counts`), and
    consecutive circles with one M_r form a group. What does not depend on
    h_n is set up once per group: the power table r^k for k < min(M/2, M_r),
    one (rows, M_r) spectrum buffer the inverse FFT overwrites in place, the
    moduli buffer, and the running |B_n|^2 on the points
    r * unit_circle_grid(M_r). Coefficients k >= M_r are dropped; a group
    with M_r = M zero-pads its upper half instead.

    Two a priori certificates hold for a circle with M_r < M (the trapezoid
    rule converges like r^{M_r}; Trefethen & Weideman, SIAM Review 2014):
    - the dropped coefficients weigh r^k <= r^{M_r} <= RING_TOLERANCE^2;
    - the trapezoid mean of |g|^2, g analytic with Taylor coefficients g_k,
      differs from the circle mean by the aliased Fourier coefficients
      sum_{j != 0} sum_k g_{k+|j| M_r} conj(g_k) r^{2k+|j| M_r}, at most
      2 r^{M_r} / (1 - r^{M_r}) * ||g||^2_{H^2} by Cauchy-Schwarz.
    Both are checked once at set-up against the squared unit roundoff u^2 =
    2^-106, so a ring mean of |R_n|^2 carries no quadrature error above its
    own rounding unless it is below u * ||R_n||^2_{H^2}. The bound covers
    |R_n|^p only for even integer p, as the mean of |R_n^{p/2}|^2 with
    R_n^{p/2} analytic; for any other p, |R_n|^p is not smooth where R_n
    vanishes, so a set of circles shared with such a norm keeps all M points.
    Each group's contiguous (rows, M_r) transform beat `fnspace._synthesize`
    with radial weights, whose strided view and twiddle pass cost more: 2.04 ms
    against 2.22 ms for 619 live coefficients and 1.44 ms against 2.05 ms for
    4 (64 rings at M = 2048, one thread of a 2-core Xeon, 30-round medians).
    """

    def __init__(self, specs, zeros, sample_count: int):
        shared = {}
        for spec in specs:
            if spec.kind == "bergman" and spec.p != math.inf:
                shared.setdefault((spec.alpha, spec.radial_nodes), []).append(spec)
        self._rings = []  # (specs, groups) per set of circles
        for (alpha, radial_nodes), ring_specs in shared.items():
            radii = bergman_radial_rule(alpha, radial_nodes)[0]
            sizes = (ring_sample_counts(radii, sample_count)
                     if all(s.p % 2 == 0 for s in ring_specs) else np.full(radii.size, sample_count))
            reduced = sizes < sample_count
            dropped = radii[reduced] ** sizes[reduced]
            if np.max(2.0 * dropped / (1.0 - dropped), initial=0.0) > _UNIT_ROUNDOFF ** 2:
                raise AssertionError(
                    f"ring grids of {sorted(set(sizes.tolist()))} points for radii up to "
                    f"{np.max(radii[reduced]):.17g} certify no error below 2^-106"
                )
            groups, start = [], 0
            for size, run in itertools.groupby(sizes.tolist()):
                rows = radii[start:start + len(list(run))]
                start += rows.size
                width = min(sample_count // 2, size)
                groups.append((
                    np.power(rows[:, None], np.arange(width, dtype=float)),
                    np.empty((rows.size, size), dtype=complex),
                    np.empty((rows.size, size)),
                    running_squared_moduli(zeros, rows[:, None] * unit_circle_grid(size)),
                ))
            self._rings.append((ring_specs, groups))

    def _moduli(self, shift: complex, h: BoundaryFunction):
        """Yield (specs, one block of |R_n|^2 rows per group, in radius
        order, overwritten by the next step) per set of circles."""
        for ring_specs, groups in self._rings:
            blocks = []
            for powers, values, moduli, products in groups:
                width = powers.shape[1]
                np.multiply(h.taylor[:width], powers, out=values[:, :width])
                values[:, width:] = 0.0
                # unnormalized inverse, in place: values[k] = sum_n a_n r^n omega^(n k)
                np.fft.ifft(values, norm="forward", out=values)
                values += shift
                np.abs(values, out=moduli)
                moduli *= moduli
                moduli *= next(products)
                blocks.append(moduli)
            yield ring_specs, blocks

    def step(self, shift: complex, h: BoundaryFunction) -> dict[str, float]:
        """{label: norm of R_n} for every finite-p Bergman spec."""
        norms = {}
        for ring_specs, blocks in self._moduli(shift, h):
            for spec in ring_specs:
                weights = bergman_radial_rule(spec.alpha, spec.radial_nodes)[1]
                angular_means = np.concatenate(
                    [np.mean(block ** (spec.p / 2.0), axis=1) for block in blocks])
                norms[spec.label] = float(np.dot(weights, angular_means) ** (1.0 / spec.p))
        return norms


@dataclass(frozen=True)
class BoundCheck:
    """An inequality lhs <= rhs between two independently computed sides."""

    lhs: float
    rhs: float
    holds: bool


def embedding_check(f: BoundaryFunction, spec: NormSpec) -> BoundCheck:
    """Verify ||f||_X <= C_0 ||f||_sup for the requested norm (C_0 = 1 here)."""
    norm_x = spec.evaluate(f)
    bound = EMBEDDING_CONSTANT * sup_norm(f)
    return BoundCheck(norm_x, bound, norm_x <= bound + DOMINATION_SLACK)
