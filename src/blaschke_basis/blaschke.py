"""Blaschke factors, finite Blaschke products, Cauchy kernels, point sequences.

The factor b_lambda(z) = (lambda - z)/(1 - conj(lambda) z) is unimodular on
the unit circle and vanishes at lambda; a finite Blaschke product is a
product of such factors (the empty product is the constant 1). A sequence
(lambda_n) in the disk is Blaschke when sum (1 - |lambda_n|) converges; for
non-Blaschke sequences the products B_n tend to zero locally uniformly,
which is what makes them usable as an expansion basis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AnalyticityError, PreconditionError
from .fnspace import (
    UNBOUNDED_RADIUS,
    BoundaryFunction,
    from_samples,
    from_taylor,
    point_value,
    unit_circle_grid,
)

#: Two sequence points closer than this are treated as duplicates; the
#: triangular reconstruction diagonal degrades as points merge.
DISTINCTNESS_TOL = 1e-10

#: Default phase step for the "harmonic" spiral: the golden angle, which
#: avoids accidental near-duplicates on a ray.
GOLDEN_ANGLE = 2.0 * math.pi * (1.0 - 2.0 / (1.0 + math.sqrt(5.0)))

_DENOMINATOR_FLOOR = 1e-14


class SequenceKind(enum.Enum):
    BLASCHKE = "blaschke"
    NON_BLASCHKE = "non-blaschke"


def pole_radius(lam) -> float:
    """Modulus of the pole 1/conj(lam) introduced by a factor or kernel."""
    modulus = abs(complex(lam))
    return 1.0 / modulus if modulus > 0.0 else UNBOUNDED_RADIUS


@dataclass(frozen=True, eq=False)
class PointSequence:
    """A finite prefix of a disk-point sequence with its declared class.

    The Blaschke/non-Blaschke classification is declared analytically by the
    generator (divergence of sum (1 - |lambda_n|) is undecidable from a
    finite prefix). `modulus_to_one` records whether |lambda_n| -> 1 along
    the generated sequence, which the TMW constructions require.
    """

    points: np.ndarray
    kind: SequenceKind
    generator_tag: str
    modulus_to_one: bool = False

    def __post_init__(self) -> None:
        points = np.array([point_value(p) for p in np.atleast_1d(self.points)], dtype=complex)
        if points.size == 0:
            raise PreconditionError("a point sequence needs at least one point")
        diffs = np.abs(points[:, None] - points[None, :])
        np.fill_diagonal(diffs, np.inf)
        closest = float(np.min(diffs)) if points.size > 1 else np.inf
        if closest < DISTINCTNESS_TOL:
            i, j = np.unravel_index(np.argmin(diffs), diffs.shape)
            raise PreconditionError(
                f"duplicate points: |lambda_{i + 1} - lambda_{j + 1}| = {closest:.3e} "
                f"< {DISTINCTNESS_TOL:g}"
            )
        points.setflags(write=False)
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return int(self.points.size)

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind.value,
            "generator_tag": self.generator_tag,
            "modulus_to_one": self.modulus_to_one,
            "points": [[float(p.real), float(p.imag)] for p in self.points],
        }


@dataclass(frozen=True, eq=False)
class FiniteBlaschkeProduct:
    """A product of Blaschke factors; empty zeros mean the constant 1."""

    zeros: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=complex))

    def __post_init__(self) -> None:
        zeros = np.array(
            [point_value(z) for z in np.atleast_1d(self.zeros)], dtype=complex
        ) if np.size(self.zeros) else np.empty(0, dtype=complex)
        zeros.setflags(write=False)
        object.__setattr__(self, "zeros", zeros)

    @property
    def degree(self) -> int:
        return int(self.zeros.size)

    @classmethod
    def from_prefix(cls, seq: PointSequence, n: int) -> "FiniteBlaschkeProduct":
        if not 0 <= n <= len(seq):
            raise PreconditionError(f"prefix length {n} outside 0..{len(seq)}")
        return cls(seq.points[:n])


def blaschke_factor(lam, z) -> complex | np.ndarray:
    """b_lambda(z) = (lambda - z)/(1 - conj(lambda) z) for |z| <= 1.

    Vectorized over z. The denominator cannot degenerate for lambda kept
    inside the guarded disk, but is asserted anyway.
    """
    lam = point_value(lam)
    z = np.asarray(z, dtype=complex)
    denom = 1.0 - np.conj(lam) * z
    if np.min(np.abs(denom)) < _DENOMINATOR_FLOOR:
        raise AnalyticityError(
            f"degenerate factor denominator |1 - conj(lambda) z| < {_DENOMINATOR_FLOOR:g}"
        )
    out = (lam - z) / denom
    return out if out.ndim else complex(out)


def running_products(zeros, z, start=None):
    """Yield start * B_0(z), start * B_1(z), ..., start * B_n(z) for the
    prefixes of `zeros`, multiplying in one factor per step (vectorized over
    z of any shape; start defaults to 1).

    Every product the library evaluates is formed here, one multiplication
    per factor in sequence order; only the independent oracles (triangular
    reconstruction, the selftest span builder) multiply their own.
    """
    z = np.asarray(z, dtype=complex)
    # the running product replaces `start`, so no earlier product stays alive
    if start is None:
        start = np.ones_like(z)
    yield start
    for zero in zeros:
        start = start * blaschke_factor(zero, z)
        yield start


def product_eval(product: FiniteBlaschkeProduct, z) -> complex | np.ndarray:
    """Evaluate the finite product at z (vectorized); 1 for the empty product."""
    for out in running_products(product.zeros, z):
        pass
    return out if out.ndim else complex(out)


def product_as_function(product: FiniteBlaschkeProduct, sample_count: int) -> BoundaryFunction:
    """Sample the product at the roots of unity and return it as a function.

    Requires degree <= sample_count/4 so the coefficient tail has room to
    decay; a failed analyticity check means the boundary oscillation is
    under-resolved. The radius is set by the nearest pole 1/|lambda_k|.
    """
    if product.degree > sample_count // 4:
        raise PreconditionError(
            f"degree {product.degree} exceeds sample_count/4 = {sample_count // 4}"
        )
    values = product_eval(product, unit_circle_grid(sample_count))
    radius = min((pole_radius(z) for z in product.zeros), default=UNBOUNDED_RADIUS)
    return from_samples(values, radius, scale_floor=1.0)


def cauchy_kernel(lam, sample_count: int) -> BoundaryFunction:
    """The reproducing kernel k_lambda(z) = 1/(1 - conj(lambda) z).

    Taylor coefficients conj(lambda)^k, truncated at the grid bandwidth M/2;
    the dropped tail is of size |lambda|^(M/2).
    """
    lam = point_value(lam)
    coeffs = np.conj(lam) ** np.arange(sample_count // 2, dtype=float)
    return from_taylor(coeffs, sample_count, pole_radius(lam))


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise PreconditionError(f"bad {what}: {text!r}") from exc


def parse_complex(text: str) -> complex:
    """A complex literal that may write the imaginary unit as i or j."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise PreconditionError(f"bad complex literal: {text!r}") from exc


def _parse_point_list(body: str) -> list[complex]:
    body = body.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if not body.strip():
        raise PreconditionError("explicit point list is empty")
    return [parse_complex(part) for part in body.split(",")]


def make_sequence(spec: str, count: int) -> PointSequence:
    """Generate a point sequence from a spec string.

    Grammar:
      harmonic[:phase_step]  lambda_n = (1 - 1/(n+1)) e^(i n theta); the
                             moduli sum 1/(n+1) diverges, so non-Blaschke,
                             with |lambda_n| -> 1. Default theta is the
                             golden angle.
      harmonic-shifted       lambda_n = 1 - 1/(n+2), real; non-Blaschke,
                             |lambda_n| -> 1.
      geometric:q            lambda_n = 1 - q^n with 0 < q < 1; sum q^n
                             converges, so Blaschke (|lambda_n| -> 1).
      explicit:[z1,z2,...]   the listed points verbatim. Any finite list of
                             distinct disk points extends to a non-Blaschke
                             sequence, so the prefix is classified
                             non-Blaschke; nothing is known about the tail
                             moduli, so modulus_to_one is False. `count` is
                             ignored.

    The classification comes from the generator's closed-form series
    analysis, never from the finite prefix.
    """
    spec = spec.strip()
    if spec.startswith("explicit:"):
        points = _parse_point_list(spec.split(":", 1)[1])
        return PointSequence(np.array(points, dtype=complex), SequenceKind.NON_BLASCHKE,
                             "explicit", modulus_to_one=False)
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise PreconditionError(f"sequence length must be a positive integer, got {count!r}")
    n = np.arange(1, int(count) + 1, dtype=float)

    if spec == "harmonic-shifted":
        points = 1.0 - 1.0 / (n + 2.0)
        return PointSequence(points.astype(complex), SequenceKind.NON_BLASCHKE,
                             "harmonic-shifted", modulus_to_one=True)
    if spec == "harmonic" or spec.startswith("harmonic:"):
        theta = GOLDEN_ANGLE if spec == "harmonic" else _parse_float(spec.split(":", 1)[1], "phase step")
        points = (1.0 - 1.0 / (n + 1.0)) * np.exp(1j * theta * n)
        return PointSequence(points, SequenceKind.NON_BLASCHKE,
                             f"harmonic:{theta:.12g}", modulus_to_one=True)
    if spec.startswith("geometric:"):
        q = _parse_float(spec.split(":", 1)[1], "geometric ratio")
        if not 0.0 < q < 1.0:
            raise PreconditionError(f"geometric ratio must lie in (0, 1), got {q!r}")
        points = (1.0 - q ** n).astype(complex)
        return PointSequence(points, SequenceKind.BLASCHKE,
                             f"geometric:{q:.12g}", modulus_to_one=True)
    raise PreconditionError(f"unknown sequence spec: {spec!r}")


def pointwise_decay_check(seq: PointSequence, z, n_max: int) -> list[float]:
    """|B_n(z)| for n = 0..n_max at a fixed interior point.

    For non-Blaschke sequences the values tend to zero (reported, not
    asserted at any fixed n); Blaschke sequences are accepted as a contrast
    case, where the values stay bounded below.
    """
    zval = point_value(z)
    if not 0 <= n_max <= len(seq):
        raise PreconditionError(f"n_max {n_max} outside 0..{len(seq)}")
    return [float(abs(value)) for value in running_products(seq.points[:n_max], zval)]
