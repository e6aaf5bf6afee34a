"""Function-space norms on the boundary grid: sup, Hardy H^p, weighted Bergman.

All measures are normalized to probability measures (dm on the circle, the
weighted area measure (1+alpha)(1-|z|^2)^alpha dA/pi on the disk), so the
constant 1 has norm 1 everywhere and every implemented norm is dominated by
the sup norm with embedding constant 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .errors import PreconditionError
from .fnspace import BoundaryFunction, samples_at_radius

#: Every implemented norm satisfies ||f||_X <= EMBEDDING_CONSTANT * ||f||_sup
#: thanks to the probability normalizations.
EMBEDDING_CONSTANT = 1.0

DOMINATION_SLACK = 1e-10

DEFAULT_RADIAL_NODES = 64


def sup_norm(f: BoundaryFunction) -> float:
    """Maximum modulus over the boundary samples (the H^infinity norm for
    the analytic functions represented here, by the maximum principle)."""
    return float(np.max(np.abs(f.samples)))


def hardy_norm(f: BoundaryFunction, p: float) -> float:
    """H^p norm, 1 <= p < infinity, by trapezoid quadrature on the boundary.

    For analytic f the radial sup defining H^p is attained at the boundary.
    """
    p = float(p)
    if not (1.0 <= p < math.inf):
        raise PreconditionError(f"hardy_norm requires 1 <= p < inf, got {p!r}")
    return float(np.mean(np.abs(f.samples) ** p) ** (1.0 / p))


def bergman_radial_rule(alpha: float, radial_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii and weights integrating g -> int_0^1 g(r) (1+a)(1-r^2)^a 2r dr.

    Gauss nodes in the variable u = 1 - r^2 with the weight u^alpha absorbed
    into the rule (plain Gauss-Legendre for alpha = 0), so non-integer alpha
    costs no accuracy.
    """
    x, w = roots_jacobi(radial_nodes, 0.0, alpha)
    u = (1.0 + x) / 2.0
    weights = (1.0 + alpha) * 2.0 ** (-(alpha + 1.0)) * w
    return np.sqrt(1.0 - u), weights


def bergman_quadrature(rings: np.ndarray, weights: np.ndarray, p: float) -> float:
    """Weighted Bergman norm from a function's values on the circles of a
    `bergman_radial_rule` (one row per radius): trapezoid in angle, Gauss
    radially."""
    angular_means = np.mean(np.abs(rings) ** p, axis=1)
    return float(np.dot(weights, angular_means) ** (1.0 / p))


def bergman_norm(
    f: BoundaryFunction,
    p: float,
    alpha: float = 0.0,
    radial_nodes: int = DEFAULT_RADIAL_NODES,
) -> float:
    """Weighted Bergman norm (integral of |f|^p (1+a)(1-|z|^2)^a dA/pi)^(1/p)."""
    if f.analytic_radius < 1.0:
        raise PreconditionError("bergman_norm needs a function analytic up to the boundary")
    spec = NormSpec("bergman", float(p), float(alpha), radial_nodes)
    radii, weights = bergman_radial_rule(spec.alpha, spec.radial_nodes)
    return bergman_quadrature(samples_at_radius(f, radii), weights, spec.p)


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
        if self.kind == "bergman" and not self.radial_nodes >= 1:
            raise PreconditionError(
                f"Bergman radial_nodes must be positive, got {self.radial_nodes!r}"
            )

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

    def evaluate(self, f: BoundaryFunction) -> float:
        if self.kind == "sup" or (self.kind == "hardy" and self.p == math.inf):
            return sup_norm(f)
        if self.kind == "hardy":
            return hardy_norm(f, self.p)
        return bergman_norm(f, self.p, self.alpha, self.radial_nodes)


@dataclass(frozen=True)
class EmbeddingCheck:
    norm_x: float
    c0_times_sup: float
    holds: bool


def embedding_check(f: BoundaryFunction, spec: NormSpec) -> EmbeddingCheck:
    """Verify ||f||_X <= C_0 ||f||_sup for the requested norm (C_0 = 1 here)."""
    norm_x = spec.evaluate(f)
    bound = EMBEDDING_CONSTANT * sup_norm(f)
    return EmbeddingCheck(norm_x, bound, norm_x <= bound + DOMINATION_SLACK)
