"""Fingerprint the CLI's deterministic outputs for a byte-identity check.

    python3 tools/cli_contract.py > after.txt

Runs a fixed list of commands through `blaschke_basis.cli.main` inside a
temporary directory, after writing the fixed function file `func.json` that
the `file:` command reads there, and prints one line per command:

    <sha256> <exit code> <argv>

The hash covers the data file for a command that exits 0 and the captured
stderr otherwise (the exit-3 witness and the usage errors). No hashes are
committed: to check that a refactoring keeps every output, copy this script
into a checkout of the earlier commit, run it there as well, and `diff` the
two listings. The library is imported from the `src/` next to this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from blaschke_basis import cli  # noqa: E402

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
]

#: The `file:` input: a truncated, non-entire function with complex
#: coefficients, a declared radius and a grid other than the default.
FUNCTION_FILE = (
    '{"sample_count": 4096, "analytic_radius": 1.6, "taylor": ['
    + ", ".join(f"[{0.6 ** k:.17g}, {(-0.5) ** k * 0.3:.17g}]" for k in range(40))
    + "]}"
)

#: Commands that fail: the under-resolved witness (exit 3) and usage errors (exit 2).
FAILING_COMMANDS = [
    "tmw witness --kmax 64 --support pow2 --seq harmonic-shifted --out x.json",
    "expand --func kernel:0.3q --seq harmonic --nterms 4 --out x.json",
    "expand --func poly:1,zz --seq harmonic --nterms 4 --out x.json",
    "expand --func blaschke:0.5;? --seq harmonic --nterms 4 --out x.json",
    "expand --func ratgeo:0.5+ --seq harmonic --nterms 4 --out x.json",
    "convergence --func kernel:0.3 --seq harmonic --nterms 4 --norms hardy:x --out x.csv",
    "expand --func kernel:0.3 --seq explicit:[0.1,0.2k] --nterms 2 --out x.json",
    "expand --func kernel:1.5 --seq harmonic --nterms 4 --out x.json",
]


def fingerprint(command: str) -> tuple[str, int]:
    argv = shlex.split(command)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if code == 0:
        with open(argv[-1], "rb") as handle:
            payload = handle.read()
    else:
        payload = stderr.getvalue().encode("utf-8")
    return hashlib.sha256(payload).hexdigest(), code


def main() -> int:
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        with open("func.json", "w", encoding="utf-8") as handle:
            handle.write(FUNCTION_FILE)
        try:
            for command in DATA_COMMANDS + FAILING_COMMANDS:
                digest, code = fingerprint(command)
                print(f"{digest} {code} {command}", flush=True)
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
