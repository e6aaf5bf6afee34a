"""The CLI's output contract: fingerprints, and a numeric comparison with
another checkout.

    python3 tools/cli_contract.py                  # listing only
    python3 tools/cli_contract.py --save DIR       # listing, and keep every output in DIR
    python3 tools/cli_contract.py --against DIR    # listing, then compare with DIR

Runs a fixed list of commands through `blaschke_basis.cli.main` inside a
temporary directory, after writing the fixed function file `func.json` that
the `file:` command reads there, and prints one line per command:

    <sha256> <exit code> <argv>

The hash covers the data file for a command that exits 0 and the captured
stderr otherwise (the exit-3 witness and the usage errors). The library is
imported from the `src/` next to this script.

To check a change, copy this script into a checkout of the earlier commit,
run it there with `--save DIR`, then run it here with `--against DIR`. The
comparison parses the numbers of both sides' JSON and CSV files as exact
decimals. A changed cell passes when it moves by at most one unit in its
12th significant digit (the printed precision) or by 1e-14 * sup|f|,
whichever is larger, where f is the command's `--func` input; the TMW
commands, which have none, use the unit H^2 norm of the TMW elements as the
scale. Everything else must match exactly: the files' structure and text,
and each failing command's exit code and stderr; a command the saved run
lacks is listed as new and not compared. For the kernel expansions, the
witnesses, the functional and the Gram matrices each side's gap to the
closed form of `tests/oracle.py` is printed as well, and it must not grow by
more than one print unit. One line per command names its worst cell; the
exit code is 0 only if every compared command passes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import sys
import tempfile
from decimal import Decimal

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from blaschke_basis import cli  # noqa: E402
from blaschke_basis.blaschke import make_sequence, parse_complex  # noqa: E402

#: Commands that write a data file, which is named by the last argument.
DATA_COMMANDS = [
    "expand --func kernel:0.3 --seq harmonic-shifted --nterms 40 --out a.json",
    "convergence --func kernel:0.3 --seq harmonic-shifted --nterms 60 "
    "--norms sup,hardy:2,bergman:2:0 --bound kernel --out b.csv",
    "tmw witness --kmax 32 --support pow2 --exponent 0.25 --seq harmonic-shifted --out c.json",
    "expand --func kernel:0.1-0.28i --seq harmonic:1.7 --nterms 500 --samples 8192 --out d.json",
    "convergence --func kernel:-0.2+0.2i --seq harmonic-shifted --nterms 60 "
    "--norms sup,hardy:2,bergman:2:0 --bound kernel --samples 2048 --out e.csv",
    "convergence --func poly:1,0.5,0.25i,-0.3 --seq harmonic:2.1 --nterms 30 "
    "--norms sup,hardy:1,hardy:4,bergman:1:0.5,bergman:2:1:32 --out f.csv",
    "tmw gram --k 64 --seq harmonic:1.3 --samples 8192 --out g.json",
    "tmw functional --n 500 --seq harmonic:1.3 --samples 8192 --out h.json",
    "expand --func blaschke:0.5;-0.3i --seq explicit:[0.1,0.2i,-0.4,0.5+0.5i] --nterms 4 "
    "--out i.json",
    "expand --func ratgeo:0.8 --seq harmonic --nterms 100 --out j.json",
    "tmw witness --kmax 32 --seq harmonic --out k.json",
    "tmw witness --kmax 16 --support 2,3,5,11 --seq harmonic-shifted --samples 2048 --out l.json",
    "expand --func file:func.json --seq harmonic:0.9 --nterms 50 --out m.json",
    "convergence --func kernel:0.9 --seq harmonic:1.7 --nterms 100 "
    "--norms sup,bergman:2:1,bergman:4:1,bergman:1:0 --samples 8192 --out n.csv",
    "tmw functional --n 500 --seq harmonic-shifted --samples 8192 --out o.json",
    "convergence --func kernel:0.9 --seq harmonic:1.7 --nterms 500 --norms sup,bergman:2:1 "
    "--samples 8192 --out p.csv",
    "convergence --func ratgeo:0.8 --seq harmonic --nterms 40 "
    "--norms sup,hardy:inf,hardy:1.5,bergman:inf:0.5,bergman:6:2 --out q.csv",
    "convergence --func kernel:0.3 --seq harmonic --nterms 20 --norms hardy:3,sup,hardy:inf "
    "--out r.csv",
]

#: The `file:` input: a truncated, non-entire function with complex
#: coefficients, a declared radius and a grid other than the default.
FUNCTION_FILE = (
    '{"sample_count": 4096, "analytic_radius": 1.6, "taylor": ['
    + ", ".join(f"[{0.6 ** k:.17g}, {(-0.5) ** k * 0.3:.17g}]" for k in range(40))
    + "]}"
)

#: Commands that fail: the under-resolved witness and Gram matrix (exit 3) and
#: usage errors (exit 2), among them a `ratgeo:` point too near the circle for
#: its series to be truncated at M/2.
FAILING_COMMANDS = [
    "tmw witness --kmax 64 --support pow2 --seq harmonic-shifted --out x.json",
    "tmw gram --k 64 --seq harmonic-shifted --samples 2048 --out x.json",
    "expand --func kernel:0.3q --seq harmonic --nterms 4 --out x.json",
    "expand --func poly:1,zz --seq harmonic --nterms 4 --out x.json",
    "expand --func blaschke:0.5;? --seq harmonic --nterms 4 --out x.json",
    "expand --func ratgeo:0.5+ --seq harmonic --nterms 4 --out x.json",
    "convergence --func kernel:0.3 --seq harmonic --nterms 4 --norms hardy:x --out x.csv",
    "expand --func kernel:0.3 --seq explicit:[0.1,0.2k] --nterms 2 --out x.json",
    "expand --func kernel:1.5 --seq harmonic --nterms 4 --out x.json",
    "expand --func ratgeo:0.99999999999 --seq harmonic --nterms 4 --out x.json",
]

#: Relative size of a change allowed at the scale sup|f|.
SCALE_RTOL = 1e-14

#: Manifest of a saved run: command -> [exit code, saved file name].
MANIFEST = "manifest.json"


def run(command: str) -> tuple[int, bytes]:
    """Exit code and payload: the data file on success, stderr otherwise."""
    argv = shlex.split(command)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if code == 0:
        with open(argv[-1], "rb") as handle:
            return code, handle.read()
    return code, stderr.getvalue().encode("utf-8")


def print_unit(x: float) -> float:
    """One unit in the 12th significant digit of x (0 for x = 0)."""
    return 10.0 ** (math.floor(math.log10(abs(x))) - 11) if x else 0.0


def cell_unit(x: Decimal) -> Decimal:
    """One unit in the 12th significant digit of a printed cell, exactly."""
    return Decimal(1).scaleb(x.adjusted() - 11) if x else Decimal(0)


def cells(name: str, payload: bytes) -> list[tuple[str, object]]:
    """(path, value) for every leaf of a JSON file or cell of a CSV file;
    numbers are the exact decimals printed, everything else stays text."""
    text = payload.decode("utf-8")
    if name.endswith(".csv"):
        rows = [line.split(",") for line in text.splitlines()]
        header = rows[0]
        found = [("header", ",".join(header))]
        for row in rows[1:]:
            found += [(f"n={row[0]}:{label}", Decimal(cell)) for label, cell in zip(header, row)]
            found.append((f"n={row[0]}:width", len(row)))
        return found

    found = []

    def walk(path, node):
        if isinstance(node, dict):
            found.append((path + ":keys", ",".join(node)))
            for key, value in node.items():
                walk(f"{path}.{key}", value)
        elif isinstance(node, list):
            found.append((path + ":len", len(node)))
            for index, value in enumerate(node):
                walk(f"{path}[{index}]", value)
        elif isinstance(node, (int, Decimal)) and not isinstance(node, bool):
            found.append((path, Decimal(node)))
        else:
            found.append((path, node))

    walk("", json.loads(text, parse_float=Decimal))
    return found


def function_scale(argv: list[str]) -> float:
    """sup|f| of the command's --func input on its grid, or 1 without one."""
    args = cli.build_parser().parse_args(argv)
    if not getattr(args, "func", None):
        return 1.0
    return float(max(abs(cli.parse_function_spec(args.func, args.samples).samples)))


def closed_form_gap(argv: list[str], payload: bytes) -> tuple[float, float] | None:
    """(max gap to the closed form, print unit of the cell where it is
    largest) for the commands the oracle covers, else None."""
    import oracle  # tests/oracle.py; `--save` in an older checkout never needs it

    args = cli.build_parser().parse_args(argv)
    if args.command == "convergence" or (args.command == "expand"
                                         and not args.func.startswith("kernel:")):
        return None
    data = json.loads(payload)
    if args.command == "expand":
        alpha = parse_complex(args.func[len("kernel:"):])
        points = make_sequence(args.seq, args.nterms).points[: args.nterms]
        expected = [complex(c) for c in oracle.kernel_coefficients(alpha, points)]
        got = [complex(re, im) for re, im in data["coefficients"]]
    elif args.tmw_command == "witness":
        points = make_sequence(args.seq, args.kmax).points
        support = data["support"]
        expected = [float(v) for v in oracle.witness_values(
            support, args.exponent, [points[n - 1] for n in support])]
        got = data["values"]
    elif args.tmw_command == "functional":
        lam = make_sequence(args.seq, args.n).points[args.n - 1]
        expected = [float(oracle.functional_norms([lam])[0])]
        got = [data["quadrature"]]
    else:
        k = data["k"]
        expected = [1.0 if i == j else 0.0 for i in range(k) for j in range(k)]
        got = [complex(re, im) for row in data["matrix"] for re, im in row]
    gaps = [abs(g - e) for g, e in zip(got, expected, strict=True)]
    worst = max(range(len(gaps)), key=gaps.__getitem__)
    return gaps[worst], max(print_unit(abs(got[worst])), print_unit(abs(expected[worst])))


def compare(command: str, here: tuple[int, bytes], saved: tuple[int, bytes]) -> tuple[bool, list[str]]:
    """Whether `here` keeps the contract against `saved`, and the report lines."""
    argv = shlex.split(command)
    (code, payload), (saved_code, saved_payload) = here, saved
    if code != 0 or saved_code != 0:
        same = code == saved_code and payload == saved_payload
        return same, [f"exit {saved_code} -> {code}, stderr {'identical' if same else 'differs'}"]
    mine, theirs = cells(argv[-1], payload), cells(argv[-1], saved_payload)
    if [path for path, _ in mine] != [path for path, _ in theirs]:
        return False, ["structure differs"]
    scale = function_scale(argv)
    ok, changed, worst = True, 0, (Decimal(0), "", 0, 0, 0)
    for (path, value), (_, before) in zip(mine, theirs):
        if value == before:
            continue
        changed += 1
        if not all(isinstance(x, Decimal) and x.is_finite() for x in (value, before)):
            return False, [f"{path}: {before!r} -> {value!r}"]
        tolerance = max(cell_unit(max(abs(value), abs(before))), Decimal(SCALE_RTOL * scale))
        ratio = abs(value - before) / tolerance
        ok &= ratio <= 1
        if ratio >= worst[0]:
            worst = (ratio, path, before, value, tolerance)
    lines = [f"{changed} of {len(mine)} cells changed"]
    if changed:
        ratio, path, before, value, tolerance = worst
        lines[0] += (f"; worst {path}: {before} -> {value}, |d| {abs(value - before):.3g} "
                     f"vs {tolerance:.3g} ({ratio:.2f} of it; sup|f| {scale:.6g})")
    gaps = closed_form_gap(argv, payload), closed_form_gap(argv, saved_payload)
    if gaps[0] is not None:
        (gap, unit), (saved_gap, _) = gaps
        grows = gap > saved_gap + unit
        ok &= not grows
        lines.append(f"closed-form gap {saved_gap:.3g} -> {gap:.3g} (one print unit {unit:.0e})")
    return ok, lines


def save(results: dict, target: str) -> None:
    """Write every payload to `target`, with a manifest of exit codes."""
    os.makedirs(target, exist_ok=True)
    manifest = {}
    for index, (command, (code, payload)) in enumerate(results.items()):
        name = f"{index:02d}-{shlex.split(command)[-1] if code == 0 else 'stderr.txt'}"
        with open(os.path.join(target, name), "wb") as handle:
            handle.write(payload)
        manifest[command] = [code, name]
    with open(os.path.join(target, MANIFEST), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)


def against(results: dict, target: str) -> int:
    """Compare every result with the one saved in `target`; 0 if all pass."""
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    with open(os.path.join(target, MANIFEST), encoding="utf-8") as handle:
        manifest = json.load(handle)
    failures, compared = 0, 0
    print()
    for command, here in results.items():
        if command not in manifest:
            print(f"new  {command}\n     exit {here[0]}, not in the saved run")
            continue
        compared += 1
        saved_code, saved_name = manifest[command]
        with open(os.path.join(target, saved_name), "rb") as handle:
            ok, lines = compare(command, here, (saved_code, handle.read()))
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {command}")
        for line in lines:
            print(f"     {line}")
    print(f"\n{compared - failures} of {compared} commands keep the contract")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--save", metavar="DIR", help="keep every command's output in DIR")
    group.add_argument("--against", metavar="DIR", help="compare with the outputs saved in DIR")
    args = parser.parse_args(argv)
    target = os.path.abspath(args.save or args.against or ".")
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        # the `file:` input, and the comparison's sup|f| of it, read func.json here
        os.chdir(workdir)
        try:
            with open("func.json", "w", encoding="utf-8") as handle:
                handle.write(FUNCTION_FILE)
            results = {}
            for command in DATA_COMMANDS + FAILING_COMMANDS:
                code, payload = results[command] = run(command)
                print(f"{hashlib.sha256(payload).hexdigest()} {code} {command}", flush=True)
            if args.save:
                save(results, target)
            if args.against:
                return against(results, target)
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
