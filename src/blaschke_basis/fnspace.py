"""Boundary-sampled analytic functions on the closed unit disk.

A function is stored by its values at the M-th roots of unity together with
the Taylor coefficients recovered from those values by the discrete Fourier
transform. M is a power of two and the usable Taylor bandwidth is M/2:
spectral bins M/2..M-1 are where negative frequencies alias on the grid, so
they must be numerically empty for a sample vector to count as analytic, and
they are kept identically zero in the stored representation. Inputs that
would genuinely populate those bins are rejected rather than silently
aliased.

All values are immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AnalyticityError, PreconditionError

#: Default number of boundary samples; spectrally accurate for functions
#: analytic on a disk of radius >= 1.05 at desk-scale cost.
DEFAULT_SAMPLE_COUNT = 2048

MIN_SAMPLE_COUNT = 16

#: Points are kept this far away from the unit circle; kernels and the
#: coefficient formulas degenerate as |lambda| -> 1.
BOUNDARY_GUARD = 1e-8

#: Negative-frequency energy above this fraction of the peak sample modulus
#: rejects a claimed analytic sample vector. Separates roundoff from genuine
#: non-analyticity.
ANALYTICITY_RTOL = 1e-8

#: Stand-in radius for entire functions (polynomials, the empty product).
UNBOUNDED_RADIUS = 1e18


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _validate_sample_count(sample_count: int) -> None:
    if not isinstance(sample_count, (int, np.integer)):
        raise PreconditionError(f"sample_count must be an integer, got {sample_count!r}")
    if sample_count < MIN_SAMPLE_COUNT or not _is_power_of_two(sample_count):
        raise PreconditionError(
            f"sample_count must be a power of two >= {MIN_SAMPLE_COUNT}, got {sample_count}"
        )


@lru_cache(maxsize=32)
def unit_circle_grid(sample_count: int) -> np.ndarray:
    """The M-th roots of unity exp(2*pi*i*k/M), k = 0..M-1 (read-only)."""
    _validate_sample_count(sample_count)
    grid = np.exp(2j * np.pi * np.arange(sample_count) / sample_count)
    grid.setflags(write=False)
    return grid


@dataclass(frozen=True)
class DiskPoint:
    """A point of the open unit disk, kept BOUNDARY_GUARD away from the circle."""

    value: complex

    def __post_init__(self) -> None:
        value = complex(self.value)
        if abs(value) > 1.0 - BOUNDARY_GUARD:
            raise PreconditionError(
                f"point {value} has modulus {abs(value):.17g} > 1 - {BOUNDARY_GUARD:g}"
            )
        object.__setattr__(self, "value", value)


def point_value(point) -> complex:
    """Coerce a DiskPoint or bare number to a validated complex disk point."""
    if isinstance(point, DiskPoint):
        return point.value
    return DiskPoint(complex(point)).value


def _synthesize(taylor: np.ndarray) -> np.ndarray:
    # samples[k] = sum_n taylor[n] * omega^(n k), omega = exp(2 pi i / M),
    # row by row along the last axis
    return np.fft.ifft(taylor) * taylor.shape[-1]


def _analyze(samples: np.ndarray) -> np.ndarray:
    return np.fft.fft(samples) / samples.size


def project_spectrum(spectrum: np.ndarray) -> np.ndarray:
    """Zero the negative-frequency half (bins M/2..M-1) of a sample spectrum.

    Bin M/2 (Nyquist) is treated as negative so the analytic bandwidth stays
    at M/2, matching the degree cap of `from_taylor`. Exactly idempotent.
    """
    spectrum = np.asarray(spectrum, dtype=complex)
    out = spectrum.copy()
    out[spectrum.size // 2 :] = 0.0
    return out


@dataclass(frozen=True, eq=False, repr=False)
class BoundaryFunction:
    """An analytic function represented by M boundary samples.

    Fields
    ------
    samples : complex values f(exp(2*pi*i*k/M)), k = 0..M-1
    taylor : Taylor coefficients a_0..a_{M-1}; bins >= M/2 are identically 0
    sample_count : M, a power of two >= 16
    analytic_radius : declared radius of analyticity (>= 1; 1 means
        boundary-only, so no expanding dilation is allowed)
    """

    samples: np.ndarray
    taylor: np.ndarray
    sample_count: int
    analytic_radius: float

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=complex)
        taylor = np.array(self.taylor, dtype=complex)
        _validate_sample_count(self.sample_count)
        if samples.shape != (self.sample_count,) or taylor.shape != (self.sample_count,):
            raise PreconditionError("samples and taylor must both have length sample_count")
        if not self.analytic_radius >= 1.0:
            raise PreconditionError(
                f"analytic_radius must be >= 1, got {self.analytic_radius!r}"
            )
        samples.setflags(write=False)
        taylor.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "taylor", taylor)
        object.__setattr__(self, "analytic_radius", float(self.analytic_radius))

    def __repr__(self) -> str:
        return (
            f"BoundaryFunction(sample_count={self.sample_count}, "
            f"analytic_radius={self.analytic_radius:g})"
        )

    def to_jsonable(self) -> dict:
        """JSON object {sample_count, analytic_radius, taylor} with the
        trailing all-zero part of the coefficient list trimmed."""
        nonzero = np.nonzero(self.taylor)[0]
        upto = int(nonzero[-1]) + 1 if nonzero.size else 1
        return {
            "sample_count": self.sample_count,
            "analytic_radius": self.analytic_radius,
            "taylor": [[float(c.real), float(c.imag)] for c in self.taylor[:upto]],
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "BoundaryFunction":
        try:
            coeffs = [complex(re, im) for re, im in obj["taylor"]]
            sample_count = int(obj["sample_count"])
            radius = float(obj["analytic_radius"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PreconditionError(f"malformed BoundaryFunction object: {exc}") from exc
        return from_taylor(coeffs, sample_count, radius)


def _build(samples: np.ndarray, taylor: np.ndarray, analytic_radius: float) -> BoundaryFunction:
    return BoundaryFunction(samples, taylor, len(samples), analytic_radius)


def from_taylor(
    coeffs,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    analytic_radius: float = UNBOUNDED_RADIUS,
) -> BoundaryFunction:
    """Build a function from Taylor coefficients a_0..a_{d} with d < M/2.

    The stored object is the polynomial with exactly these coefficients, so
    the default analytic_radius treats it as entire; callers representing a
    truncation of a non-entire function should declare the true radius.
    """
    _validate_sample_count(sample_count)
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise PreconditionError("coeffs must be a nonempty 1-d sequence")
    if coeffs.size > sample_count // 2:
        raise PreconditionError(
            f"{coeffs.size} coefficients exceed the aliasing-safe bandwidth "
            f"{sample_count // 2} of sample_count={sample_count}"
        )
    if not analytic_radius >= 1.0:
        raise PreconditionError(f"analytic_radius must be >= 1, got {analytic_radius!r}")
    taylor = np.zeros(sample_count, dtype=complex)
    taylor[: coeffs.size] = coeffs
    return _build(_synthesize(taylor), taylor, float(analytic_radius))


def from_samples(samples, analytic_radius: float = 1.0, *, scale_floor: float = 0.0) -> BoundaryFunction:
    """Build a function from boundary samples that are already analytic.

    The negative-frequency half of the spectrum must be below
    ANALYTICITY_RTOL relative to the peak sample modulus (or to
    `scale_floor`, whichever is larger -- callers producing small results
    from large inputs pass the input scale so roundoff junk is judged
    against it). The certified-analytic part is kept: the stored samples are
    resynthesized from the projected spectrum.
    """
    arr = np.asarray(samples, dtype=complex)
    if arr.ndim != 1:
        raise PreconditionError("samples must be a 1-d sequence")
    _validate_sample_count(arr.size)
    spectrum = _analyze(arr)
    scale = max(float(np.max(np.abs(arr))) if arr.size else 0.0, float(scale_floor))
    negative = spectrum[arr.size // 2 :]
    worst = float(np.max(np.abs(negative)))
    if worst > ANALYTICITY_RTOL * scale:
        bin_offset = int(np.argmax(np.abs(negative)))
        raise AnalyticityError(
            f"negative-frequency energy {worst:.3e} at bin {arr.size // 2 + bin_offset} "
            f"exceeds {ANALYTICITY_RTOL:.0e} * scale {scale:.3e}; "
            "increase sample_count or check that the input is analytic"
        )
    taylor = project_spectrum(spectrum)
    return _build(_synthesize(taylor), taylor, float(analytic_radius))


def riesz_project(samples) -> BoundaryFunction:
    """Project raw boundary samples onto the analytic part.

    Fourier-transform, zero the negative-frequency bins, transform back.
    Accepts any sample vector; the result has analytic_radius 1 (boundary
    only).
    """
    arr = np.asarray(samples, dtype=complex)
    if arr.ndim != 1:
        raise PreconditionError("samples must be a 1-d sequence")
    _validate_sample_count(arr.size)
    taylor = project_spectrum(_analyze(arr))
    return _build(_synthesize(taylor), taylor, 1.0)


def eval_inside(f: BoundaryFunction, z) -> complex:
    """Evaluate f at an interior point by Horner summation of the Taylor series.

    Agrees with the discrete Cauchy pairing <f, k_z> because the stored
    function is analytic.
    """
    zval = point_value(z)
    return complex(np.polynomial.polynomial.polyval(zval, f.taylor))


def samples_at_radius(f: BoundaryFunction, r) -> np.ndarray:
    """Values f(r * omega^k) on the circle of radius r <= 1; an array of
    radii gives one row of M values per radius, from one batched transform."""
    radii = np.asarray(r, dtype=float)
    if not np.all((0.0 <= radii) & (radii <= 1.0)):
        raise PreconditionError(f"radius must lie in [0, 1], got {r!r}")
    weights = np.power(radii[..., None], np.arange(f.sample_count, dtype=float))
    return _synthesize(f.taylor * weights)


def dilate(f: BoundaryFunction, r: float) -> BoundaryFunction:
    """The dilation z -> f(r z), valid for 0 < r <= f.analytic_radius.

    Coefficients are scaled by r^k and the samples resynthesized. Expanding
    (r > 1) amplifies the coefficient tail; if the tail holds roundoff noise
    rather than genuine decay the scaled values overflow, which is reported
    instead of returning garbage.
    """
    r = float(r)
    if not 0.0 < r <= f.analytic_radius:
        raise PreconditionError(
            f"dilation factor {r!r} outside (0, analytic_radius={f.analytic_radius:g}]"
        )
    if r == 1.0:
        return f
    scaled = np.zeros(f.sample_count, dtype=complex)
    nonzero = f.taylor != 0
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.power(r, np.arange(f.sample_count, dtype=float)[nonzero])
        scaled[nonzero] = f.taylor[nonzero] * weights
    if not np.all(np.isfinite(scaled)):
        raise AnalyticityError(
            f"dilation by {r:g} overflowed the coefficient tail; the declared "
            f"analytic_radius {f.analytic_radius:g} is not supported by the stored coefficients"
        )
    return _build(_synthesize(scaled), scaled, f.analytic_radius / r)


_DIVISOR_FLOOR = 1e-12


def pointwise_combine(
    f: BoundaryFunction,
    g: BoundaryFunction,
    op: str,
    analytic_radius: float | None = None,
) -> BoundaryFunction:
    """Sample-wise add/sub/mul/div of two functions on the same grid.

    The result must itself be analytic (checked); for div the caller asserts
    analyticity of the quotient, e.g. after exact zero removal, and may
    override the default radius of 1.
    """
    if f.sample_count != g.sample_count:
        raise PreconditionError(
            f"sample counts differ: {f.sample_count} vs {g.sample_count}"
        )
    if op == "add":
        combined = f.samples + g.samples
    elif op == "sub":
        combined = f.samples - g.samples
    elif op == "mul":
        combined = f.samples * g.samples
    elif op == "div":
        smallest = float(np.min(np.abs(g.samples)))
        if smallest < _DIVISOR_FLOOR:
            raise PreconditionError(
                f"division by a near-zero sample (min modulus {smallest:.3e} < {_DIVISOR_FLOOR:g})"
            )
        combined = f.samples / g.samples
    else:
        raise PreconditionError(f"op must be one of add/sub/mul/div, got {op!r}")
    if analytic_radius is None:
        analytic_radius = 1.0 if op == "div" else min(f.analytic_radius, g.analytic_radius)
    scale = max(float(np.max(np.abs(f.samples))), float(np.max(np.abs(g.samples))))
    return from_samples(combined, analytic_radius, scale_floor=scale)


def pairing(f, g) -> complex:
    """The discrete duality pairing <f, g> = mean of f * conj(g) on the grid.

    Trapezoid rule on the periodic grid; exact whenever f * conj(g) is
    band-limited below M. Accepts BoundaryFunction or raw sample vectors.
    """
    fs = f.samples if isinstance(f, BoundaryFunction) else np.asarray(f, dtype=complex)
    gs = g.samples if isinstance(g, BoundaryFunction) else np.asarray(g, dtype=complex)
    if fs.shape != gs.shape:
        raise PreconditionError("pairing requires equal-length sample vectors")
    return complex(np.mean(fs * np.conj(gs)))
