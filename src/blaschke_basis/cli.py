"""Command-line driver: expansions, convergence tables, TMW diagnostics,
selftest.

The command line is the only input; each subcommand's parser holds its
`--samples` and `--out` defaults. A data command's handler returns the data
text, and `main` writes it with a `<out>.meta.json` sidecar (the parsed
argv, the version, the creation time). Data files are deterministic (12
significant digits, no timestamps). Exit codes: 0 success, 2 usage or
precondition violation (an unwritable `--out` too), 3 numerical degradation.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .blaschke import (
    FiniteBlaschkeProduct,
    cauchy_kernel,
    make_sequence,
    parse_complex,
    product_as_function,
)
from .errors import AnalyticityError, PreconditionError
from .fnspace import DEFAULT_SAMPLE_COUNT, BoundaryFunction, from_taylor
from .norms import NormSpec
from .schauder import convergence_study, expansion_coefficients
from .selftest import MODULE_NAMES, run_selftest
from .serialize import dumps_canonical, write_with_sidecar
from .tmw import DEFAULT_TMW_SAMPLE_COUNT, functional_norm, gram_matrix, lacunary_witness

#: A Gram matrix farther than this from the identity (max |G - I|) means the
#: grid under-resolves the TMW elements: exit 3. Resolved grids read ~1e-14.
GRAM_IDENTITY_TOL = 1e-10


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
    ratgeo:c         the geometric series 1/(1 - c z): the kernel at conj(c)
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
        return cauchy_kernel(_parse_func_complex(body).conjugate(), sample_count)
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


def _add_common_flags(parser: argparse.ArgumentParser, samples: int, out: str) -> None:
    parser.add_argument("--seq", required=True, help="sequence spec (harmonic[:theta], "
                        "harmonic-shifted, geometric:q, explicit:[z1,z2,...])")
    parser.add_argument("--samples", type=int, default=samples,
                        help="boundary sample count (power of two, default %(default)s)")
    parser.add_argument("--out", default=out, help="output path (default %(default)s)")


def _cmd_expand(args) -> str:
    f = parse_function_spec(args.func, args.samples)
    seq = make_sequence(args.seq, args.nterms)
    result = expansion_coefficients(f, seq, args.nterms, function_label=args.func)
    return dumps_canonical(result.to_jsonable())


def _cmd_convergence(args) -> str:
    f = parse_function_spec(args.func, args.samples)
    seq = make_sequence(args.seq, args.nterms)
    specs = [NormSpec.parse(part) for part in args.norms.split(",")]
    kernel_alpha = None
    if args.bound is not None:
        if args.bound != "kernel":
            raise PreconditionError(f"--bound: unknown bound type {args.bound!r}")
        if not args.func.startswith("kernel:"):
            raise PreconditionError("--bound kernel requires --func kernel:<point>")
        kernel_alpha = _parse_func_complex(args.func.partition(":")[2])
    return convergence_study(f, seq, args.nterms, specs, kernel_alpha=kernel_alpha).to_csv()


def _cmd_gram(args) -> str:
    seq = make_sequence(args.seq, args.k)
    gram = gram_matrix(seq, args.k, args.samples)
    deviation = np.abs(gram - np.eye(args.k))
    worst = float(np.max(deviation))
    if not worst <= GRAM_IDENTITY_TOL:
        raise AnalyticityError(
            f"Gram matrix of k={args.k} elements deviates from the identity by {worst:.3e} "
            f"> {GRAM_IDENTITY_TOL:g} at M={args.samples}; increase --samples"
        )
    off_diagonal = deviation.copy()
    np.fill_diagonal(off_diagonal, 0.0)
    return dumps_canonical({
        "k": args.k,
        "sample_count": args.samples,
        "max_identity_deviation": worst,
        "max_offdiagonal": float(np.max(off_diagonal)) if args.k > 1 else 0.0,
        "matrix": gram.view(float).reshape(args.k, args.k, 2).tolist(),
    })


def _cmd_functional(args) -> str:
    seq = make_sequence(args.seq, args.n)
    report = functional_norm(seq, args.n, args.samples)
    lam = seq.points[args.n - 1]
    return dumps_canonical({
        "n": args.n,
        "lambda": [float(lam.real), float(lam.imag)],
        "quadrature": report.quadrature,
        "closed_form": report.closed_form,
    })


def _cmd_witness(args) -> str:
    seq = make_sequence(args.seq, args.kmax)
    report = lacunary_witness(seq, args.kmax, exponent=args.exponent,
                              support=args.support, sample_count=args.samples)
    return dumps_canonical(report.to_jsonable())


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
    _add_common_flags(expand, DEFAULT_SAMPLE_COUNT, "expansion.json")
    expand.set_defaults(handler=_cmd_expand)

    conv = commands.add_parser("convergence", help="tabulate residual norms")
    conv.add_argument("--func", required=True, help="function spec (as for expand)")
    conv.add_argument("--nterms", type=int, required=True, help="largest expansion length")
    conv.add_argument("--norms", default="sup",
                      help="comma-separated norm specs (sup | hardy:p | bergman:p:alpha)")
    conv.add_argument("--bound", default=None,
                      help="emit the closed remainder bound column ('kernel'; "
                           "requires a kernel function)")
    _add_common_flags(conv, DEFAULT_SAMPLE_COUNT, "convergence.csv")
    conv.set_defaults(handler=_cmd_convergence)

    tmw_cmd = commands.add_parser("tmw", help="orthonormal-system diagnostics")
    tmw_sub = tmw_cmd.add_subparsers(dest="tmw_command", required=True)
    gram = tmw_sub.add_parser("gram", help="Gram matrix of the first k elements")
    gram.add_argument("--k", type=int, required=True)
    _add_common_flags(gram, DEFAULT_TMW_SAMPLE_COUNT, "gram.json")
    gram.set_defaults(handler=_cmd_gram)
    functional = tmw_sub.add_parser("functional", help="evaluation-functional norm")
    functional.add_argument("--n", type=int, required=True)
    _add_common_flags(functional, DEFAULT_TMW_SAMPLE_COUNT, "functional.json")
    functional.set_defaults(handler=_cmd_functional)
    witness = tmw_sub.add_parser("witness", help="lacunary growth witness")
    witness.add_argument("--support", default="pow2",
                         help="'pow2' or comma-separated indices")
    witness.add_argument("--kmax", type=int, required=True)
    witness.add_argument("--exponent", type=float, default=0.25)
    _add_common_flags(witness, DEFAULT_TMW_SAMPLE_COUNT, "witness.json")
    witness.set_defaults(handler=_cmd_witness)

    selftest = commands.add_parser("selftest", help="run the invariant suite")
    selftest.add_argument("--samples", type=int, default=None,
                          help="override every check's sample count")
    selftest.add_argument("--filter", default=None, choices=MODULE_NAMES,
                          help="run only one module's invariants")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return run_selftest(sample_count=args.samples, module_filter=args.filter)
        text = args.handler(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AnalyticityError as exc:
        print(f"numerical degradation: {exc}", file=sys.stderr)
        return 3
    try:
        write_with_sidecar(args.out, text, argv, __version__)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
