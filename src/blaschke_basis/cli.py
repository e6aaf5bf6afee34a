"""Command-line driver: expansions, convergence tables, TMW diagnostics,
selftest.

Exit codes: 0 success, 2 usage or precondition violation, 3 numerical
degradation. Data files are deterministic (12 significant digits, no
timestamps); run metadata goes to a `<out>.meta.json` sidecar. The
BLASCHKE_SAMPLES environment variable overrides the default sample count.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .blaschke import (
    FiniteBlaschkeProduct,
    cauchy_kernel,
    make_sequence,
    parse_complex,
    pole_radius,
    product_as_function,
)
from .errors import AnalyticityError, PreconditionError
from .fnspace import DEFAULT_SAMPLE_COUNT, BoundaryFunction, from_taylor
from .norms import NormSpec
from .schauder import convergence_study, expansion_coefficients
from .selftest import MODULE_NAMES, run_selftest
from .serialize import dumps_canonical, write_with_sidecar
from .tmw import DEFAULT_TMW_SAMPLE_COUNT, functional_norm, gram_matrix, lacunary_witness


def _parse_func_complex(text: str) -> complex:
    try:
        return parse_complex(text)
    except PreconditionError:
        raise PreconditionError(f"--func: bad complex literal {text!r}") from None


def parse_function_spec(text: str, sample_count: int) -> BoundaryFunction:
    """Build a function from the CLI grammar.

    poly:a0,a1,...   polynomial with the given (complex) coefficients
    kernel:a         the Cauchy kernel at the point a
    blaschke:z1;z2   finite Blaschke product with the given zeros
    ratgeo:c         the geometric series 1/(1 - c z)
    file:PATH        JSON {sample_count, analytic_radius, taylor} object
    """
    kind, _, body = text.partition(":")
    if kind == "poly" and body:
        coeffs = [_parse_func_complex(part) for part in body.split(",")]
        return from_taylor(coeffs, sample_count)
    if kind == "kernel" and body:
        return cauchy_kernel(_parse_func_complex(body), sample_count)
    if kind == "blaschke" and body:
        zeros = [_parse_func_complex(part) for part in body.split(";")]
        return product_as_function(FiniteBlaschkeProduct(np.array(zeros)), sample_count)
    if kind == "ratgeo" and body:
        c = _parse_func_complex(body)
        coeffs = c ** np.arange(sample_count // 2, dtype=float)
        return from_taylor(coeffs, sample_count, pole_radius(c))
    if kind == "file" and body:
        import json

        try:
            with open(body, encoding="utf-8") as handle:
                obj = json.load(handle)
        except (OSError, ValueError) as exc:
            raise PreconditionError(f"--func: cannot read {body!r}: {exc}") from exc
        return BoundaryFunction.from_jsonable(obj)
    raise PreconditionError(
        f"--func: unknown function spec {text!r}; expected poly:, kernel:, "
        "blaschke:, ratgeo: or file:"
    )


def _resolve_samples(flag_value: int | None, fallback: int) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("BLASCHKE_SAMPLES")
    if env is None:
        return fallback
    try:
        return int(env)
    except ValueError:
        raise PreconditionError(f"BLASCHKE_SAMPLES: not an integer: {env!r}") from None


def _add_common_flags(parser: argparse.ArgumentParser, default_samples: int | None = None) -> None:
    parser.add_argument("--seq", required=True, help="sequence spec (harmonic[:theta], "
                        "harmonic-shifted, geometric:q, explicit:[z1,z2,...])")
    parser.add_argument("--samples", type=int, default=default_samples,
                        help="boundary sample count (power of two)")
    parser.add_argument("--out", default=None, help="output path")


def _cmd_expand(args) -> int:
    samples = _resolve_samples(args.samples, DEFAULT_SAMPLE_COUNT)
    f = parse_function_spec(args.func, samples)
    seq = make_sequence(args.seq, args.nterms)
    result = expansion_coefficients(f, seq, args.nterms, function_label=args.func)
    out = args.out or "expansion.json"
    write_with_sidecar(out, dumps_canonical(result.to_jsonable()), sys.argv[1:], __version__)
    print(out)
    return 0


def _cmd_convergence(args) -> int:
    samples = _resolve_samples(args.samples, DEFAULT_SAMPLE_COUNT)
    f = parse_function_spec(args.func, samples)
    seq = make_sequence(args.seq, args.nterms)
    specs = [NormSpec.parse(part) for part in args.norms.split(",")]
    kernel_alpha = None
    if args.bound is not None:
        if args.bound != "kernel":
            raise PreconditionError(f"--bound: unknown bound type {args.bound!r}")
        if not args.func.startswith("kernel:"):
            raise PreconditionError("--bound kernel requires --func kernel:<point>")
        kernel_alpha = _parse_func_complex(args.func.partition(":")[2])
    table = convergence_study(f, seq, args.nterms, specs, kernel_alpha=kernel_alpha)
    out = args.out or "convergence.csv"
    write_with_sidecar(out, table.to_csv(), sys.argv[1:], __version__)
    print(out)
    return 0


def _cmd_tmw(args) -> int:
    samples = _resolve_samples(args.samples, DEFAULT_TMW_SAMPLE_COUNT)
    if args.tmw_command == "gram":
        seq = make_sequence(args.seq, args.k)
        gram = gram_matrix(seq, args.k, samples)
        deviation = np.abs(gram - np.eye(args.k))
        off_diagonal = deviation.copy()
        np.fill_diagonal(off_diagonal, 0.0)
        payload = {
            "k": args.k,
            "sample_count": samples,
            "max_identity_deviation": float(np.max(deviation)),
            "max_offdiagonal": float(np.max(off_diagonal)) if args.k > 1 else 0.0,
            "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in gram],
        }
        out = args.out or "gram.json"
    elif args.tmw_command == "functional":
        seq = make_sequence(args.seq, args.n)
        report = functional_norm(seq, args.n, samples)
        lam = seq.points[args.n - 1]
        payload = {
            "n": args.n,
            "lambda": [float(lam.real), float(lam.imag)],
            "quadrature": report.quadrature,
            "closed_form": report.closed_form,
        }
        out = args.out or "functional.json"
    else:
        seq = make_sequence(args.seq, args.kmax)
        try:
            support = args.support if args.support == "pow2" else [
                int(part) for part in args.support.split(",")
            ]
        except ValueError:
            raise PreconditionError(
                f"--support: expected 'pow2' or comma-separated indices, got {args.support!r}"
            ) from None
        report = lacunary_witness(seq, args.kmax, exponent=args.exponent,
                                  support=support, sample_count=samples)
        payload = report.to_jsonable()
        out = args.out or "witness.json"
    write_with_sidecar(out, dumps_canonical(payload), sys.argv[1:], __version__)
    print(out)
    return 0


def _cmd_selftest(args) -> int:
    return run_selftest(sample_count=args.samples, module_filter=args.filter)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blaschke-basis",
        description="Expand analytic functions on the closed unit disk in "
                    "finite Blaschke products.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    expand = commands.add_parser("expand", help="compute expansion coefficients")
    expand.add_argument("--func", required=True,
                        help="function spec (poly:a0,a1,... | kernel:a | "
                             "blaschke:z1;z2 | ratgeo:c | file:PATH)")
    expand.add_argument("--nterms", type=int, required=True, help="number of coefficients")
    _add_common_flags(expand)
    expand.set_defaults(handler=_cmd_expand)

    conv = commands.add_parser("convergence", help="tabulate residual norms")
    conv.add_argument("--func", required=True, help="function spec (as for expand)")
    conv.add_argument("--nterms", type=int, required=True, help="largest expansion length")
    conv.add_argument("--norms", default="sup",
                      help="comma-separated norm specs (sup | hardy:p | bergman:p:alpha)")
    conv.add_argument("--bound", default=None,
                      help="emit the closed remainder bound column ('kernel'; "
                           "requires a kernel function)")
    _add_common_flags(conv)
    conv.set_defaults(handler=_cmd_convergence)

    tmw_cmd = commands.add_parser("tmw", help="orthonormal-system diagnostics")
    tmw_sub = tmw_cmd.add_subparsers(dest="tmw_command", required=True)
    gram = tmw_sub.add_parser("gram", help="Gram matrix of the first k elements")
    gram.add_argument("--k", type=int, required=True)
    _add_common_flags(gram)
    gram.set_defaults(handler=_cmd_tmw)
    functional = tmw_sub.add_parser("functional", help="evaluation-functional norm")
    functional.add_argument("--n", type=int, required=True)
    _add_common_flags(functional)
    functional.set_defaults(handler=_cmd_tmw)
    witness = tmw_sub.add_parser("witness", help="lacunary growth witness")
    witness.add_argument("--support", default="pow2",
                         help="'pow2' or comma-separated indices")
    witness.add_argument("--kmax", type=int, required=True)
    witness.add_argument("--exponent", type=float, default=0.25)
    _add_common_flags(witness)
    witness.set_defaults(handler=_cmd_tmw)

    selftest = commands.add_parser("selftest", help="run the invariant suite")
    selftest.add_argument("--samples", type=int, default=None,
                          help="override every check's sample count")
    selftest.add_argument("--filter", default=None, choices=MODULE_NAMES,
                          help="run only one module's invariants")
    selftest.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AnalyticityError as exc:
        print(f"numerical degradation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
