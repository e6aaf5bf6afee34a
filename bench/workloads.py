"""The benchmark workloads: the CLI argv of each op, drawn from the seed, and
the correctness gate its output must pass.

A seed picks only phases (the kernel point a = 0.3 e^{i phi} and the
`harmonic:theta` step); M, N and |a| are fixed per workload, so every op of
every seed does the same work. Each op draws fresh phases, so no two ops of a
run repeat an input. Gates check the data files against closed forms computed
here, which share no code with the path under test.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from blaschke_basis.blaschke import PointSequence, SequenceKind, cauchy_kernel
from blaschke_basis.tmw import lacunary_witness

#: |a| of the kernel input. Its Taylor coefficients 0.3^k underflow after 619
#: terms, so at M = 8192 the input fills 0.15 of the M/2 analytic bins.
KERNEL_RADIUS = 0.3

#: Gate tolerances, set from measured gaps with a wide margin (the data files
#: carry 12 significant digits).
COEFFICIENT_TOL = 1e-10  # expand coefficients vs closed form; measured 4.9e-13
RESIDUAL_RTOL = 1e-9  # expand residual sup norms vs closed form; measured 4.6e-12
GRAM_TOL = 1e-10  # max |G - I|; measured 4.4e-15
WITNESS_RTOL = 1e-9  # values vs c_n / sqrt(1 - |lambda_n|^2); measured 2.9e-12
DOMINATION_RTOL = 1e-9  # hardy, bergman <= sup <= bound


@dataclass(frozen=True)
class Op:
    """One op: CLI calls run back to back, then `check()` lists gate failures."""

    commands: list[list[str]]
    check: Callable[[], list[str]]


def complex_literal(z: complex) -> str:
    """A round-trip `--func` literal for z, e.g. `0.25-0.1i`."""
    return f"{z.real:.17g}{z.imag:+.17g}i"


def parse_literal(text: str) -> complex:
    return complex(text.replace("i", "j"))


def harmonic_points(theta: float, count: int) -> np.ndarray:
    """lambda_n = (1 - 1/(n+1)) e^{i n theta}, n = 1..count."""
    n = np.arange(1, count + 1, dtype=float)
    return (1.0 - 1.0 / (n + 1.0)) * np.exp(1j * theta * n)


def _draw_kernel_point(rng) -> str:
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return complex_literal(KERNEL_RADIUS * complex(math.cos(phi), math.sin(phi)))


def _draw_theta(rng) -> str:
    return format(rng.uniform(1.0, 3.0), ".17g")


def _taylor_fill(taylor: np.ndarray) -> float:
    """Nonzero Taylor bins over the M/2 analytic bins."""
    return int(np.count_nonzero(taylor)) / (taylor.size // 2)


def _kernel_descriptor(samples: int, nterms: int) -> dict:
    """M, N and the Taylor fill of the kernel input (which depends on |a| only)."""
    f = cauchy_kernel(KERNEL_RADIUS, samples)
    return {"M": samples, "N": nterms, "taylor_fill": _taylor_fill(f.taylor)}


class ExpandStress:
    """The Toeplitz chain at stress scale: one `expand` per op."""

    name = "expand-stress"

    def __init__(self, nterms: int = 500, samples: int = 8192):
        self.nterms, self.samples = nterms, samples

    def draw(self, rng, out_dir: str) -> Op:
        point, theta = _draw_kernel_point(rng), _draw_theta(rng)
        path = os.path.join(out_dir, "expansion.json")
        argv = ["expand", "--func", f"kernel:{point}", "--seq", f"harmonic:{theta}",
                "--nterms", str(self.nterms), "--samples", str(self.samples), "--out", path]
        return Op([argv], lambda: self.check(parse_literal(point), float(theta), path))

    def check(self, a: complex, theta: float, path: str) -> list[str]:
        with open(path, encoding="utf-8") as handle:
            obj = json.load(handle)
        coeffs = np.array([complex(re, im) for re, im in obj["coefficients"]])
        residuals = np.array(obj["residual_sup_norms"], dtype=float)
        if coeffs.size != self.nterms or residuals.size != self.nterms:
            return [f"expected {self.nterms} coefficients and residuals, got "
                    f"{coeffs.size} and {residuals.size}"]
        # The kernel is an eigenvector of every T_{conj(B)}: h_n = conj(B_n(a)) k_a.
        # So c_n = conj(B_n(a)) k_a(lam_{n+1}) - conj(lam_n) conj(B_{n-1}(a)) k_a(lam_n),
        # and |R_n| on the circle is |conj(B_n(a)) k_a - conj(lam_n) h_{n-1}(lam_n)|.
        lam = harmonic_points(theta, self.nterms)
        kernel = lambda z: 1.0 / (1.0 - np.conj(a) * z)
        conj_b = np.conj(np.cumprod(np.concatenate([[1.0], (lam - a) / (1.0 - np.conj(lam) * a)])))
        shifts = np.conj(lam) * conj_b[:-1] * kernel(lam)  # conj(lam_n) h_{n-1}(lam_n)
        expected = conj_b[:-1] * kernel(lam)
        expected[1:] -= shifts[:-1]
        gap = float(np.max(np.abs(coeffs - expected)))
        if gap > COEFFICIENT_TOL:
            return [f"coefficients differ from the closed form by {gap:.3e} > {COEFFICIENT_TOL:g}"]
        grid_kernel = kernel(np.exp(2j * np.pi * np.arange(self.samples) / self.samples))
        exact = np.array([np.max(np.abs(conj_b[n] * grid_kernel - shifts[n - 1]))
                          for n in range(1, self.nterms + 1)])
        worst = float(np.max(np.abs(residuals - exact) / exact))
        if worst > RESIDUAL_RTOL:
            return [f"residual sup norms differ from the closed form by {worst:.3e} relative"]
        return []

    def descriptor(self) -> dict:
        return _kernel_descriptor(self.samples, self.nterms)


class ConvergenceBergman:
    """The paper-scale residual table with sup, H^2 and Bergman columns."""

    name = "convergence-bergman"
    norms = "sup,hardy:2,bergman:2:0"

    def __init__(self, nterms: int = 60, samples: int = 2048):
        self.nterms, self.samples = nterms, samples

    def draw(self, rng, out_dir: str) -> Op:
        point = _draw_kernel_point(rng)
        path = os.path.join(out_dir, "convergence.csv")
        argv = ["convergence", "--func", f"kernel:{point}", "--seq", "harmonic-shifted",
                "--nterms", str(self.nterms), "--norms", self.norms, "--bound", "kernel",
                "--samples", str(self.samples), "--out", path]
        return Op([argv], lambda: self.check(parse_literal(point), path))

    def check(self, a: complex, path: str) -> list[str]:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        header = ["n", "sup", "hardy:2", "bergman:2:0", "bound"]
        if rows[0] != header or len(rows) != self.nterms + 2:
            return [f"expected header {header} and {self.nterms + 1} rows, got "
                    f"{rows[0]} and {len(rows) - 1}"]
        table = np.array(rows[1:], dtype=float)
        sup, hardy, bergman, bound = table[:, 1], table[:, 2], table[:, 3], table[:, 4]
        grid = np.exp(2j * np.pi * np.arange(self.samples) / self.samples)
        sup_f = float(np.max(np.abs(1.0 / (1.0 - np.conj(a) * grid))))
        errors = []
        if abs(sup[0] - sup_f) > 1e-10 * sup_f:
            errors.append(f"row 0 sup {sup[0]!r} differs from sup|f| = {sup_f!r}")
        slack = 1.0 + DOMINATION_RTOL
        for label, small, big in (("sup", sup, bound), ("hardy:2", hardy, sup),
                                  ("bergman:2:0", bergman, sup)):
            bad = np.nonzero(small > big * slack)[0]
            if bad.size:
                errors.append(f"{label} exceeds its dominating column at n = {int(bad[0])}")
        return errors

    def descriptor(self) -> dict:
        return _kernel_descriptor(self.samples, self.nterms)


class TmwDiagnostics:
    """Gram matrix, lacunary witness and functional norm: three CLI calls per op."""

    name = "tmw-diagnostics"
    exponent = 0.25

    def __init__(self, k: int = 64, kmax: int = 32, n: int = 500, samples: int = 8192):
        self.k, self.kmax, self.n, self.samples = k, kmax, n, samples

    def draw(self, rng, out_dir: str) -> Op:
        theta = _draw_theta(rng)
        paths = [os.path.join(out_dir, f"{name}.json") for name in ("gram", "witness", "functional")]
        m = ["--samples", str(self.samples)]
        commands = [
            ["tmw", "gram", "--k", str(self.k), "--seq", f"harmonic:{theta}", *m,
             "--out", paths[0]],
            ["tmw", "witness", "--kmax", str(self.kmax), "--support", "pow2",
             "--seq", "harmonic-shifted", *m, "--out", paths[1]],
            ["tmw", "functional", "--n", str(self.n), "--seq", f"harmonic:{theta}", *m,
             "--out", paths[2]],
        ]
        return Op(commands, lambda: self.check(float(theta), *paths))

    def check(self, theta: float, gram_path: str, witness_path: str, functional_path: str) -> list[str]:
        errors = []
        with open(gram_path, encoding="utf-8") as handle:
            matrix = np.array([[complex(re, im) for re, im in row]
                               for row in json.load(handle)["matrix"]])
        if matrix.shape != (self.k, self.k):
            errors.append(f"Gram matrix has shape {matrix.shape}, expected {(self.k, self.k)}")
        else:
            deviation = float(np.max(np.abs(matrix - np.eye(self.k))))
            if deviation > GRAM_TOL:
                errors.append(f"Gram identity deviation {deviation:.3e} > {GRAM_TOL:g}")

        with open(witness_path, encoding="utf-8") as handle:
            witness = json.load(handle)
        support = [2 ** j for j in range(1, self.kmax.bit_length())]
        if witness["support"] != support:
            errors.append(f"witness support {witness['support']} != {support}")
        else:
            lam = 1.0 - 1.0 / (np.array(support, dtype=float) + 2.0)
            expected = np.array(support, dtype=float) ** -self.exponent / np.sqrt(1.0 - lam ** 2)
            gap = float(np.max(np.abs(np.array(witness["values"]) / expected - 1.0)))
            if gap > WITNESS_RTOL:
                errors.append(f"witness values off c_n/sqrt(1-|lambda_n|^2) by {gap:.3e} relative")

        with open(functional_path, encoding="utf-8") as handle:
            functional = json.load(handle)
        lam = harmonic_points(theta, self.n)[-1]
        closed = 1.0 / math.sqrt(1.0 - abs(lam) ** 2)
        # The kernel is stored to M/2 Taylor terms, so the quadrature sees
        # closed * sqrt(1 - |lambda|^M); allow twice that truncation.
        tol = abs(lam) ** self.samples + 1e-10
        gap = abs(functional["quadrature"] / closed - 1.0)
        if abs(complex(*functional["lambda"]) - lam) > 1e-11:
            errors.append(f"functional lambda {functional['lambda']} != {lam}")
        elif gap > tol:
            errors.append(f"functional quadrature off 1/sqrt(1-|lambda_n|^2) by {gap:.3e} > {tol:.3e}")
        return errors

    def descriptor(self) -> dict:
        seq = PointSequence(1.0 - 1.0 / (np.arange(1, self.kmax + 1) + 2.0),
                            SequenceKind.NON_BLASCHKE, "harmonic-shifted", modulus_to_one=True)
        witness = lacunary_witness(seq, self.kmax, self.exponent, "pow2", self.samples)
        return {"M": self.samples, "N": {"gram": self.k, "witness": self.kmax, "functional": self.n},
                "taylor_fill": _taylor_fill(witness.function.taylor)}


WORKLOADS = {cls.name: cls for cls in (ExpandStress, ConvergenceBergman, TmwDiagnostics)}

#: Sizes for smoke runs: the same code paths in milliseconds.
TINY = {
    "expand-stress": {"nterms": 24, "samples": 256},
    "convergence-bergman": {"nterms": 8, "samples": 256},
    "tmw-diagnostics": {"k": 8, "kmax": 8, "n": 24, "samples": 512},
}


def make(name: str, size: str = "full"):
    """The workload `name` at full or tiny size."""
    return WORKLOADS[name](**(TINY[name] if size == "tiny" else {}))
