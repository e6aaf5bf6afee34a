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
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .fnspace import (
    BOUNDARY_GUARD,
    UNBOUNDED_RADIUS,
    BoundaryFunction,
    disk_points,
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


class SequenceKind(enum.Enum):
    BLASCHKE = "blaschke"
    NON_BLASCHKE = "non-blaschke"


def pole_radius(points) -> float:
    """Modulus 1/max|p| of the nearest pole 1/conj(p) that the factors or
    kernels at `points` introduce; UNBOUNDED_RADIUS when there are none or
    all are 0."""
    modulus = max(map(abs, points), default=0.0)
    return 1.0 / modulus if modulus > 0.0 else UNBOUNDED_RADIUS


def _closest_duplicate(points: np.ndarray) -> tuple[float, int, int] | None:
    """(distance, i, j), i < j, for the closest pair of points nearer than
    DISTINCTNESS_TOL (ties to the lowest (i, j)); None when all are distinct.

    Sweeps the points sorted along the coordinate with the larger spread,
    comparing neighbours at offsets 1, 2, ... until no coordinate gap at
    that offset is below the tolerance, so spread-out points cost
    O(N log N) time and O(N) memory.
    """
    coords = points.real if np.ptp(points.real) >= np.ptp(points.imag) else points.imag
    order = np.argsort(coords, kind="stable")
    xs = coords[order]
    best = None
    for offset in range(1, points.size):
        near = np.nonzero(xs[offset:] - xs[:-offset] < DISTINCTNESS_TOL)[0]
        if near.size == 0:
            break
        a, b = order[near], order[near + offset]
        dist = np.abs(points[a] - points[b])
        hit = dist < DISTINCTNESS_TOL
        if not np.any(hit):
            continue
        dist, i, j = dist[hit], np.minimum(a, b)[hit], np.maximum(a, b)[hit]
        k = np.lexsort((j, i, dist))[0]
        candidate = (float(dist[k]), int(i[k]), int(j[k]))
        if best is None or candidate < best:
            best = candidate
    return best


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
        points = disk_points(np.atleast_1d(self.points))
        if points.size == 0:
            raise PreconditionError("a point sequence needs at least one point")
        duplicate = _closest_duplicate(points)
        if duplicate is not None:
            closest, i, j = duplicate
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

    zeros: np.ndarray = ()

    def __post_init__(self) -> None:
        zeros = disk_points(np.atleast_1d(self.zeros))
        zeros.setflags(write=False)
        object.__setattr__(self, "zeros", zeros)

    @property
    def degree(self) -> int:
        return int(self.zeros.size)


def _factor(lam: complex, z: np.ndarray) -> np.ndarray:
    # b_lambda(z) with no checks, for callers that validated lambda and z
    # once. The operand order fixes the rounding of every result; the
    # denominator comes first, so at most two grid arrays are alive at once.
    denom = 1.0 - np.conj(lam) * z
    out = lam - z
    out /= denom
    return out


def _closed_disk(z) -> np.ndarray:
    """z as a complex array, checked to lie in the closed unit disk; NaN
    fails. |z| <= 1 + BOUNDARY_GUARD/2 admits the rounded roots of unity and
    keeps |1 - conj(lambda) z| > BOUNDARY_GUARD/2 for every disk point."""
    z = np.asarray(z, dtype=complex)
    modulus = float(np.abs(z).max(initial=0.0))
    if not modulus <= 1.0 + BOUNDARY_GUARD / 2:
        raise PreconditionError(
            f"evaluation points reach modulus {modulus:.17g} > 1 + {BOUNDARY_GUARD / 2:g}; "
            "factors are evaluated on the closed unit disk"
        )
    return z


def blaschke_factor(lam, z) -> complex | np.ndarray:
    """b_lambda(z) = (lambda - z)/(1 - conj(lambda) z) for |z| <= 1.

    Vectorized over z. For a disk point lambda and z in the closed disk the
    denominator |1 - conj(lambda) z| >= 1 - |lambda| |z| stays above
    BOUNDARY_GUARD/2, so only the two inputs are checked.
    """
    out = _factor(point_value(lam), _closed_disk(z))
    return out if out.ndim else complex(out)


def running_products(zeros, z):
    """Yield B_0(z), B_1(z), ..., B_n(z) for the prefixes of `zeros`,
    multiplying in one factor per step (vectorized over z of any shape in
    the closed disk).

    Every product the library evaluates is formed here or, where only its
    modulus is needed (the Bergman rings), in `running_squared_moduli`
    below, one multiplication per factor in sequence order; only the
    independent oracles (triangular reconstruction, the selftest span
    builder) multiply their own. The TMW elements of the Gram matrix, the
    witness and `tmw_element` read one stream, each taking B_{n-1} as the
    stream passes it. The expansion's identity pass and partial sums form
    no product at all: `nested_sum` evaluates sum c_n B_n in nested form,
    from the last factor back to the first. Each of the three checks its
    zeros once per call, the two streams their points too, and then loops
    over the unchecked factor.
    """
    zeros = disk_points(zeros)
    z = _closed_disk(z)
    # each step replaces the running product, so no earlier product stays alive
    product = np.ones_like(z)
    yield product
    for lam in zeros:
        product = product * _factor(lam, z)
        yield product


def running_squared_moduli(zeros, z, work=None):
    """Yield |B_0(z)|^2, |B_1(z)|^2, ..., |B_n(z)|^2 for the prefixes of
    `zeros` at points |z| <= 1, in real arithmetic (vectorized over z of any
    shape).

    Each factor comes from the identity
    |1 - conj(lambda) z|^2 = |lambda - z|^2 + (1 - |lambda|^2)(1 - |z|^2),
    so |b_lambda(z)|^2 = |lambda - z|^2 / |1 - conj(lambda) z|^2 is a ratio
    of sums of nonnegative terms: no complex division, and no cancellation
    as z approaches lambda. The points' coordinates are read once; each step
    is a few real multiply-adds, done in place in the `work` pair of float
    arrays of z's shape (free for other use between steps; by default two
    of its own), so it keeps x, y, 1 - |z|^2 and |B_n|^2: 32 bytes a point.
    The yielded array is overwritten by the next step, so copy it to keep it.

    Its caller is the Bergman quadrature of `norms.RemainderNorms`, on circles
    inside the disk; on the unit circle itself |B_n| = 1 and no pass is needed.
    """
    zeros = disk_points(zeros)
    z = _closed_disk(z)
    x, y = z.real.copy(), z.imag.copy()
    del z  # the coordinates are all the steps read
    inside = 1.0 - (x * x + y * y)
    distance, denom = (np.empty_like(x), np.empty_like(x)) if work is None else work
    moduli = np.ones_like(x)
    yield moduli
    for lam in zeros:
        np.subtract(lam.real, x, out=distance)
        distance *= distance
        np.subtract(lam.imag, y, out=denom)
        denom *= denom
        distance += denom
        np.multiply(inside, 1.0 - abs(lam) ** 2, out=denom)
        denom += distance
        distance /= denom
        moduli *= distance
        yield moduli


def nested_sum(points, coefficients, tail: np.ndarray) -> np.ndarray:
    """sum_{k<N} c_k B_k + tail * B_N on the grid of len(tail) roots of
    unity, N = len(points), in place in `tail` as
    c_0 + b_1 (c_1 + ... + b_N tail), from the last factor back."""
    grid = unit_circle_grid(tail.size)
    for lam, c in zip(disk_points(points)[::-1], coefficients[::-1]):
        tail *= _factor(lam, grid)
        tail += c
    return tail


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
    return from_samples(values, pole_radius(product.zeros), scale_floor=1.0)


def cauchy_kernel(lam, sample_count: int) -> BoundaryFunction:
    """The reproducing kernel k_lambda(z) = 1/(1 - conj(lambda) z).

    Taylor coefficients conj(lambda)^k, truncated at the grid bandwidth M/2;
    the dropped tail is of size |lambda|^(M/2).
    """
    lam = point_value(lam)
    coeffs = np.conj(lam) ** np.arange(sample_count // 2, dtype=float)
    return from_taylor(coeffs, sample_count, pole_radius([lam]))


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
