"""Analytic functions on the closed unit disk, held as Taylor coefficients.

A function is stored as its Taylor coefficients a_0..a_{M/2-1} and nothing
else; its values at the M-th roots of unity are a view synthesized from them
by the discrete Fourier transform, and its values inside the disk come from
one backward deflation of them (`deflate`). M is a power of two and the
usable Taylor bandwidth is M/2: spectral bins M/2..M-1 are where negative
frequencies alias on the grid, so they must be numerically empty for a
sample vector to count as analytic. Inputs that would genuinely populate
them are rejected rather than silently aliased.

Each function also records its live length, the coefficients up to the last
nonzero one; everything past it is an exact zero. Deflation reads only the
live prefix and synthesis transforms only a power-of-two block that holds
it, so a polynomial or an underflowed kernel of degree d costs O(d) per
deflation and a pruned transform per synthesis, on the same M-point grid.

All values are immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
# numpy defers loading its fft submodule to first use; every command
# transforms, so load it with the library rather than inside the first call
import numpy.fft  # noqa: F401

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


def point_value(point) -> complex:
    """One point of the open unit disk kept BOUNDARY_GUARD away from the
    circle, as a complex number; anything else (NaN and inf included)
    raises PreconditionError. The scalar form of `disk_points`."""
    value = complex(point)
    if not abs(value) <= 1.0 - BOUNDARY_GUARD:
        raise PreconditionError(
            f"point {value} has modulus {abs(value):.17g} > 1 - {BOUNDARY_GUARD:g}"
        )
    return value


def disk_points(values) -> np.ndarray:
    """`values` as a fresh complex array of disk points, each checked as
    `point_value` checks one; the first that fails raises."""
    points = np.array(values, dtype=complex)
    outside = ~(np.abs(points) <= 1.0 - BOUNDARY_GUARD)
    if np.any(outside):
        point_value(points[outside].flat[0])  # raises, naming the first offender
    return points


def _synthesize(taylor: np.ndarray, live: int, out: np.ndarray | None = None) -> np.ndarray:
    # samples[k] = sum_n taylor[n] * omega^(n k), omega = exp(2 pi i / M),
    # M = 2 * len(taylor), row by row along the last axis, given that
    # taylor[..., live:] is exactly zero; written into `out` (complex,
    # contiguous, M wide) when given, so a chain can reuse one buffer.
    #
    # The transform is pruned for that zero tail (Markel, "FFT pruning",
    # 1971): with L the smallest power of two >= max(live, M/4) and s = M/L,
    # the output index k = m s + r splits the sum into s length-L transforms
    #     samples[m s + r] = sum_{n<L} (a_n omega^(r n)) exp(2 pi i n m / L),
    # so the twiddled rows a_n omega^(r n) are written straight into `out`
    # viewed as its (s, L) transpose and transformed there in place: the
    # result stays in grid order and is the only M-wide array. The twiddles
    # are strided slices of the cached grid. Each further row costs one
    # strided multiply that outweighs the shorter transforms it buys, so the
    # M/4 floor stops at four rows.
    half = taylor.shape[-1]
    size = 2 * half
    if out is None:
        out = np.empty(taylor.shape[:-1] + (size,), dtype=complex)
    width = max(live, size // 4)
    width = 1 << (width - 1).bit_length()
    rows = out.reshape(out.shape[:-1] + (width, size // width)).swapaxes(-1, -2)
    grid = unit_circle_grid(size)
    coeffs = taylor[..., :width]
    rows[..., 0, :] = coeffs
    for r in range(1, size // width):
        np.multiply(coeffs, grid[0 : r * width : r], out=rows[..., r, :])
    np.fft.ifft(rows, norm="forward", out=rows)
    return out


def _analyze(samples) -> tuple[np.ndarray, np.ndarray]:
    """The validated sample vector and its spectrum."""
    arr = np.asarray(samples, dtype=complex)
    if arr.ndim != 1:
        raise PreconditionError("samples must be a 1-d sequence")
    _validate_sample_count(arr.size)
    return arr, np.fft.fft(arr) / arr.size


def _live_length(taylor: np.ndarray, bound: int) -> int:
    """One past the last nonzero of taylor[:bound], at least 1, given that
    taylor[bound:] is zero: O(1) when taylor[bound - 1] is nonzero, one scan
    of the prefix otherwise."""
    if bound > 1 and not taylor[bound - 1]:
        nonzero = np.flatnonzero(taylor[:bound])
        bound = int(nonzero[-1]) + 1 if nonzero.size else 1
    return bound


def deflate(coeffs: np.ndarray, z: complex) -> np.ndarray:
    """b_k = sum_{j >= k} a_j z^(j-k), the backward deflation
    b_k = a_k + z b_{k+1}, by a doubling scan: after the stage with
    stride s every b_k sums the next 2s coefficients.

    b_0 is the polynomial's value at z, and b_1, b_2, ... are the
    coefficients of the quotient (f - f(z)) / (w - z); the pass is stable
    for |z| < 1. The library's only point evaluator. Callers pass a
    function's live prefix: past the last nonzero a_j every b_k is a sum of
    exact zeros, so the trimmed pass returns the same b_0..b_{d-1}, bit for
    bit, as the pass over the zero-padded list.
    """
    b = coeffs.copy()
    stride, power = 1, z
    while stride < b.size:
        b[:-stride] += power * b[stride:]
        stride, power = 2 * stride, power * power
    return b


@dataclass(frozen=True, eq=False, repr=False)
class BoundaryFunction:
    """An analytic function held by its Taylor coefficients.

    Fields
    ------
    taylor : the M/2 analytic Taylor coefficients a_0..a_{M/2-1}, a 1-d
        array; M is a power of two >= MIN_SAMPLE_COUNT
    analytic_radius : declared radius of analyticity (>= 1; 1 means
        boundary-only, so no expanding dilation is allowed)

    The grid size M = `sample_count`, the boundary values `samples` and the
    live length `live_length` (a_k == 0 exactly for k >= live_length, and
    live_length >= 1) are derived from `taylor`.
    """

    taylor: np.ndarray
    analytic_radius: float

    def __post_init__(self) -> None:
        taylor = np.array(self.taylor, dtype=complex)
        if taylor.ndim != 1:
            raise PreconditionError(f"taylor must be 1-d, got shape {taylor.shape}")
        _validate_sample_count(2 * taylor.size)
        self._freeze(taylor, self.analytic_radius, taylor.size)

    @classmethod
    def _adopt(cls, taylor: np.ndarray, analytic_radius: float, bound: int) -> "BoundaryFunction":
        """Wrap a fresh complex array of M/2 coefficients that nothing else
        holds, without the constructor's copy; taylor[bound:] must be zero."""
        f = object.__new__(cls)
        f._freeze(taylor, analytic_radius, bound)
        return f

    def _freeze(self, taylor: np.ndarray, analytic_radius: float, bound: int) -> None:
        if not analytic_radius >= 1.0:
            raise PreconditionError(f"analytic_radius must be >= 1, got {analytic_radius!r}")
        taylor.setflags(write=False)
        object.__setattr__(self, "taylor", taylor)
        object.__setattr__(self, "analytic_radius", float(analytic_radius))
        object.__setattr__(self, "live_length", _live_length(taylor, bound))

    @property
    def sample_count(self) -> int:
        """M, the number of boundary samples: twice the stored coefficients."""
        return 2 * self.taylor.size

    @cached_property
    def samples(self) -> np.ndarray:
        """Values f(exp(2*pi*i*k/M)), k = 0..M-1 (read-only), synthesized on
        first access. The cache is a pure function of the frozen
        coefficients, so concurrent first reads can only store equal
        arrays."""
        samples = _synthesize(self.taylor, self.live_length)
        samples.setflags(write=False)
        return samples

    def __repr__(self) -> str:
        return (
            f"BoundaryFunction(sample_count={self.sample_count}, "
            f"analytic_radius={self.analytic_radius:g})"
        )

    def to_jsonable(self) -> dict:
        """JSON object {sample_count, analytic_radius, taylor} with the
        trailing all-zero part of the coefficient list trimmed."""
        return {
            "sample_count": self.sample_count,
            "analytic_radius": self.analytic_radius,
            "taylor": [[float(c.real), float(c.imag)]
                       for c in self.taylor[: self.live_length]],
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "BoundaryFunction":
        try:
            coeffs = [complex(re, im) for re, im in obj["taylor"]]
            sample_count = obj["sample_count"]
            radius = float(obj["analytic_radius"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PreconditionError(f"malformed BoundaryFunction object: {exc}") from exc
        return from_taylor(coeffs, sample_count, radius)


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
    if not np.isfinite(coeffs).all():
        raise PreconditionError("coeffs must be finite")
    # the one copy: padded here and adopted, so the live length is found
    # from the end of the input rather than by a scan of all M/2 bins
    padded = np.zeros(sample_count // 2, dtype=complex)
    padded[: coeffs.size] = coeffs
    return BoundaryFunction._adopt(padded, analytic_radius, coeffs.size)


def from_samples(samples, analytic_radius: float = 1.0, *, scale_floor: float = 0.0) -> BoundaryFunction:
    """Build a function from boundary samples that are already analytic.

    The negative-frequency half of the spectrum must be below
    ANALYTICITY_RTOL relative to the peak sample modulus (or to
    `scale_floor`, whichever is larger -- callers producing small results
    from large inputs pass the input scale so roundoff junk is judged
    against it; non-finite samples fail). The certified-analytic part is
    kept: the stored coefficients are bins 0..M/2-1.
    """
    arr, spectrum = _analyze(samples)
    scale = max(float(np.max(np.abs(arr))), float(scale_floor))
    negative = spectrum[arr.size // 2 :]
    worst = float(np.max(np.abs(negative)))
    if not worst <= ANALYTICITY_RTOL * scale:
        bin_offset = int(np.argmax(np.abs(negative)))
        raise AnalyticityError(
            f"negative-frequency energy {worst:.3e} at bin {arr.size // 2 + bin_offset} "
            f"exceeds {ANALYTICITY_RTOL:.0e} * scale {scale:.3e}; "
            "increase sample_count or check that the input is analytic"
        )
    return BoundaryFunction(spectrum[: arr.size // 2], analytic_radius)


def riesz_project(samples) -> BoundaryFunction:
    """Project raw boundary samples onto the analytic part.

    Fourier-transform and keep the nonnegative-frequency bins 0..M/2-1.
    Accepts any finite sample vector; the result has analytic_radius 1
    (boundary only).
    """
    arr = np.asarray(samples, dtype=complex)
    if not np.isfinite(arr).all():
        first = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise PreconditionError(f"sample {first} is {arr.flat[first]}; the projection needs finite samples")
    arr, spectrum = _analyze(arr)
    return BoundaryFunction(spectrum[: arr.size // 2], 1.0)


def eval_inside(f: BoundaryFunction, z) -> complex:
    """Evaluate f at an interior point: b_0 of the deflation of its Taylor
    coefficients at z, the value the Toeplitz step reports bit for bit."""
    return complex(deflate(f.taylor[: f.live_length], point_value(z))[0])


def dilate(f: BoundaryFunction, r: float) -> BoundaryFunction:
    """The dilation z -> f(r z), valid for 0 <= r <= f.analytic_radius.

    The library's one coefficient scaling: the live a_k times r^k
    (`toeplitz.dilation_sup_bound_check` reads f on a circle of radius
    r > 1 through it). Expanding (r > 1) amplifies the coefficient tail; if
    the tail holds roundoff noise rather than genuine decay the scaled
    values overflow, which is reported instead of returning garbage.
    """
    r = float(r)
    if not 0.0 <= r <= f.analytic_radius:
        raise PreconditionError(
            f"dilation factor {r!r} outside [0, analytic_radius={f.analytic_radius:g}]"
        )
    if r == 1.0:
        return f
    live = f.live_length
    scaled = np.zeros(f.taylor.size, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled[:live] = f.taylor[:live] * np.power(r, np.arange(live, dtype=float))
    if not np.all(np.isfinite(scaled[:live])):
        raise AnalyticityError(
            f"dilation by {r:g} overflowed the coefficient tail; the declared "
            f"analytic_radius {f.analytic_radius:g} is not supported by the stored coefficients"
        )
    return BoundaryFunction._adopt(scaled, f.analytic_radius / r if r else UNBOUNDED_RADIUS, live)


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
