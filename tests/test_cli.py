"""End-to-end tests of the command-line driver."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from blaschke_basis.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_cli_import_loads_no_scipy():
    # scipy's import costs most of a CLI call's start-up; the library is numpy only
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import blaschke_basis.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"


class TestExpand:
    def test_polynomial_expansion_writes_json(self, tmp_path):
        out = tmp_path / "exp.json"
        code = run_cli("expand", "--func", "poly:0,0,1", "--seq", "harmonic-shifted",
                       "--nterms", "32", "--out", str(out))
        assert code == 0
        obj = json.loads(out.read_text())
        assert len(obj["coefficients"]) == 32
        residuals = obj["residual_sup_norms"]
        assert residuals[-1] < residuals[0]
        assert obj["meta"]["function"] == "poly:0,0,1"
        assert os.path.exists(str(out) + ".meta.json")

    def test_blaschke_over_explicit_sequence(self, tmp_path):
        out = tmp_path / "b.json"
        code = run_cli("expand", "--func", "blaschke:0.5", "--seq", "explicit:[0.5,0.7]",
                       "--nterms", "2", "--out", str(out))
        assert code == 0
        coeffs = [complex(re, im) for re, im in json.loads(out.read_text())["coefficients"]]
        assert abs(coeffs[0]) <= 1e-10
        assert abs(coeffs[1] - 1) <= 1e-10

    def test_blaschke_sequence_rejected(self, tmp_path):
        code = run_cli("expand", "--func", "kernel:0.3", "--seq", "geometric:0.5",
                       "--nterms", "8", "--out", str(tmp_path / "no.json"))
        assert code == 2

    def test_unknown_function_spec(self, tmp_path, capsys):
        code = run_cli("expand", "--func", "sine:1", "--seq", "harmonic",
                       "--nterms", "4", "--out", str(tmp_path / "no.json"))
        assert code == 2
        assert "--func" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for out in (first, second):
            assert run_cli("expand", "--func", "kernel:0.25", "--seq", "harmonic-shifted",
                           "--nterms", "12", "--out", str(out)) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("point, message", [
        # the series' dropped tail |c|^1024 is about 1: a degree-1023
        # truncation was expanded with exit 0
        ("0.99999999999", "point (0.99999999999-0j) has modulus 0.99999999999 > 1 - 1e-08"),
        ("1.5", "point (1.5-0j) has modulus 1.5 > 1 - 1e-08"),
    ])
    def test_ratgeo_point_is_a_disk_point(self, tmp_path, capsys, point, message):
        code = run_cli("expand", "--func", f"ratgeo:{point}", "--seq", "harmonic",
                       "--nterms", "4", "--out", str(tmp_path / "no.json"))
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_ratgeo_is_the_kernel_at_the_conjugate(self):
        from blaschke_basis import cauchy_kernel
        from blaschke_basis.cli import parse_function_spec

        for c in (0.8, 0.5 - 0.3j, -0.9j):
            for m in (2048, 8192):
                f = parse_function_spec(f"ratgeo:{c.real!r}{c.imag:+.17g}i", m)
                geometric = np.complex128(c) ** np.arange(m // 2, dtype=float)
                assert np.array_equal(f.taylor, geometric)
                assert np.array_equal(f.taylor, cauchy_kernel(np.conj(c), m).taylor)

    def test_file_function_round_trip(self, tmp_path):
        out1 = tmp_path / "first.json"
        run_cli("expand", "--func", "ratgeo:0.5", "--seq", "harmonic-shifted",
                "--nterms", "8", "--out", str(out1))
        # serialize the same function and feed it back through file:
        from blaschke_basis import cauchy_kernel
        from blaschke_basis.serialize import dumps_canonical

        fpath = tmp_path / "func.json"
        fpath.write_text(dumps_canonical(cauchy_kernel(0.5, 2048).to_jsonable()))
        out2 = tmp_path / "second.json"
        code = run_cli("expand", "--func", f"file:{fpath}", "--seq", "harmonic-shifted",
                       "--nterms", "8", "--out", str(out2))
        assert code == 0
        a = json.loads(out1.read_text())["coefficients"]
        b = json.loads(out2.read_text())["coefficients"]
        assert np.allclose(a, b, atol=1e-12)

    def test_parser_defaults_are_the_only_defaults(self, tmp_path, monkeypatch, capsys):
        # --samples defaults to 2048 for expand and 8192 for tmw, --out to a
        # fixed name in the working directory; the environment is not read
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("BLASCHKE_SAMPLES", "512")
        assert run_cli("expand", "--func", "poly:1", "--seq", "harmonic-shifted",
                       "--nterms", "2") == 0
        assert json.loads((tmp_path / "expansion.json").read_text())["meta"]["sample_count"] == 2048
        assert run_cli("tmw", "gram", "--k", "2", "--seq", "harmonic") == 0
        assert json.loads((tmp_path / "gram.json").read_text())["sample_count"] == 8192
        assert capsys.readouterr().out == "expansion.json\ngram.json\n"

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys, where):
        out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
        code = run_cli("expand", "--func", "poly:1", "--seq", "harmonic", "--nterms", "2",
                       "--out", str(out))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestConvergence:
    def read_rows(self, path):
        with open(path, newline="") as handle:
            return list(csv.DictReader(handle))

    def test_kernel_with_bound_column(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = run_cli("convergence", "--func", "kernel:0.3", "--seq", "harmonic-shifted",
                       "--nterms", "20", "--norms", "sup,hardy:1,hardy:2",
                       "--bound", "kernel", "--out", str(out))
        assert code == 0
        rows = self.read_rows(out)
        assert len(rows) == 21
        for row in rows:
            assert float(row["bound"]) >= float(row["sup"]) - 1e-9
            assert float(row["hardy:1"]) <= float(row["sup"]) + 1e-10

    def test_basis_element_rows_vanish(self, tmp_path):
        out = tmp_path / "b3.csv"
        code = run_cli("convergence", "--func", "blaschke:0.666666666666667;0.75;0.8",
                       "--seq", "harmonic-shifted", "--nterms", "8",
                       "--norms", "sup,hardy:2", "--out", str(out))
        assert code == 0
        rows = self.read_rows(out)
        for row in rows[4:]:
            assert float(row["sup"]) <= 1e-10

    def test_bound_requires_kernel_function(self, tmp_path):
        code = run_cli("convergence", "--func", "poly:1", "--seq", "harmonic-shifted",
                       "--nterms", "4", "--bound", "kernel", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    @pytest.mark.parametrize("norms, name", [("bergman:2:1e20", "alpha"),
                                             ("bergman:2:1e300", "alpha"),
                                             ("bergman:2:0:1000000000", "radial_nodes")])
    def test_bergman_spec_without_a_rule_is_a_usage_error(self, tmp_path, capsys, norms, name):
        # 1e20 wrote a nan column and exited 0, 1e300 raised LinAlgError, and
        # 10**9 radial nodes would allocate dense 10**9 x 10**9 matrices
        out = tmp_path / "x.csv"
        code = run_cli("convergence", "--func", "kernel:0.3", "--seq", "harmonic-shifted",
                       "--nterms", "3", "--samples", "256", "--norms", norms, "--out", str(out))
        assert code == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_norm_label_is_a_usage_error(self, tmp_path, capsys):
        # hardy:2 and hardy:2.0 share the label hardy:2, and a Bergman label
        # drops the radial node count; one shared column would interleave the
        # rows of two norms
        out = tmp_path / "dup.csv"
        for norms, label in (("sup,hardy:2,hardy:2.0", "hardy:2"),
                             ("bergman:2:0:8,bergman:2:0:64", "bergman:2:0")):
            code = run_cli("convergence", "--func", "kernel:0.3", "--seq", "harmonic-shifted",
                           "--nterms", "4", "--norms", norms, "--out", str(out))
            assert code == 2
            assert f"norm {label} requested more than once" in capsys.readouterr().err
            assert not out.exists()

    def test_bergman_inf_column_is_the_sup(self, tmp_path):
        out = tmp_path / "inf.csv"
        code = run_cli("convergence", "--func", "poly:2", "--seq", "harmonic", "--nterms", "2",
                       "--norms", "sup,bergman:inf:0", "--out", str(out))
        assert code == 0
        rows = self.read_rows(out)
        assert [row["bergman:inf:0"] for row in rows] == [row["sup"] for row in rows]

    def test_large_p_columns_have_no_zero_cell(self, tmp_path):
        # |R_n|^128 underflowed on unscaled moduli, and 27 of 61 rows read 0
        out = tmp_path / "p128.csv"
        code = run_cli("convergence", "--func", "kernel:0.3", "--seq", "harmonic-shifted",
                       "--nterms", "60", "--norms", "sup,hardy:128,bergman:128:0",
                       "--out", str(out))
        assert code == 0
        for row in self.read_rows(out):
            for label in ("hardy:128", "bergman:128:0"):
                assert 0.0 < float(row[label]) <= float(row["sup"])

    def test_hardy_p_1e308_reads_the_sup(self, tmp_path):
        # |R_n|^1e308 overflowed to inf, an exit 3 with a numpy warning
        out = tmp_path / "huge.csv"
        code = run_cli("convergence", "--func", "kernel:0.3", "--seq", "harmonic-shifted",
                       "--nterms", "10", "--norms", "sup,hardy:1e308", "--out", str(out))
        assert code == 0
        rows = self.read_rows(out)
        assert [row["hardy:1e+308"] for row in rows] == [row["sup"] for row in rows]

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "lf.csv"
        run_cli("convergence", "--func", "poly:1", "--seq", "harmonic-shifted",
                "--nterms", "3", "--out", str(out))
        assert b"\r" not in out.read_bytes()


class TestTmwCommands:
    def test_functional_at_origin(self, tmp_path):
        out = tmp_path / "f.json"
        code = run_cli("tmw", "functional", "--n", "1", "--seq", "explicit:[0]",
                       "--out", str(out))
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["quadrature"] == 1
        assert obj["closed_form"] == 1

    def test_gram_offdiagonal_reported(self, tmp_path):
        out = tmp_path / "g.json"
        code = run_cli("tmw", "gram", "--k", "12", "--seq", "harmonic", "--out", str(out))
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["max_offdiagonal"] <= 1e-8
        assert obj["max_identity_deviation"] <= 1e-8
        assert len(obj["matrix"]) == 12

    def test_under_resolved_gram_exits_3(self, tmp_path, capsys):
        # at M = 2048 the 64 harmonic-shifted elements are under-resolved:
        # max|G - I| = 0.299, which exited 0 with the deviation in the file
        out = tmp_path / "g.json"
        code = run_cli("tmw", "gram", "--k", "64", "--seq", "harmonic-shifted",
                       "--samples", "2048", "--out", str(out))
        assert code == 3
        err = capsys.readouterr().err
        assert "deviates from the identity by 2.990e-01 > 1e-10" in err
        assert "k=64" in err and "M=2048" in err
        assert not out.exists()

    def test_witness_values_increase(self, tmp_path):
        out = tmp_path / "w.json"
        code = run_cli("tmw", "witness", "--support", "pow2", "--kmax", "32",
                       "--exponent", "0.25", "--seq", "harmonic-shifted", "--out", str(out))
        assert code == 0
        values = json.loads(out.read_text())["values"]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_witness_rejects_sequence_without_modulus_metadata(self, tmp_path):
        code = run_cli("tmw", "witness", "--support", "pow2", "--kmax", "2",
                       "--seq", "explicit:[0.5,0.7]", "--out", str(tmp_path / "w.json"))
        assert code == 2


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ["expand", "--func", "kernel:0.3", "--seq", "harmonic-shifted", "--nterms", "5",
         "--samples", "0"],
        ["tmw", "witness", "--kmax", "8", "--support", "2,x", "--seq", "harmonic-shifted"],
        ["convergence", "--func", "kernel:0.3", "--seq", "harmonic-shifted", "--nterms", "4",
         "--norms", "bergman:2:0:0"],
        ["convergence", "--func", "kernel:0.3", "--seq", "harmonic-shifted", "--nterms", "4",
         "--norms", "bergman:2:0:-3"],
        ["expand", "--func", "kernel:nan", "--seq", "harmonic", "--nterms", "4"],
        ["expand", "--func", "kernel:0.3", "--seq", "harmonic:nan", "--nterms", "4"],
        ["expand", "--func", "kernel:0.3", "--seq", "explicit:[nan,0.2]", "--nterms", "2"],
        ["expand", "--func", "poly:1,nan", "--seq", "harmonic", "--nterms", "4"],
        ["tmw", "witness", "--kmax", "8", "--exponent", "nan", "--seq", "harmonic-shifted"],
        ["tmw", "witness", "--kmax", "8", "--exponent=-inf", "--seq", "harmonic-shifted"],
        ["tmw", "witness", "--kmax", "8", "--exponent=inf", "--seq", "harmonic-shifted"],
    ], ids=["samples-zero", "support-not-integer", "bergman-zero-nodes",
            "bergman-negative-nodes", "kernel-nan", "harmonic-nan", "explicit-nan",
            "poly-nan", "exponent-nan", "exponent-minus-inf", "exponent-inf"])
    def test_rejected_as_usage_error(self, tmp_path, argv):
        assert run_cli(*argv, "--out", str(tmp_path / "no.out")) == 2

    @pytest.mark.parametrize("count", [4096.7, 4096.0, "4096"])
    def test_non_integer_file_sample_count_rejected(self, tmp_path, capsys, count):
        fpath = tmp_path / "func.json"
        fpath.write_text(json.dumps(
            {"sample_count": count, "analytic_radius": 2.0, "taylor": [[1.0, 0.0]]}))
        code = run_cli("expand", "--func", f"file:{fpath}", "--seq", "harmonic-shifted",
                       "--nterms", "4", "--out", str(tmp_path / "no.out"))
        assert code == 2
        assert "sample_count must be an integer" in capsys.readouterr().err


class TestSelftest:
    def test_filter_runs_subset(self, capsys):
        code = run_cli("selftest", "--filter", "blaschke")
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip()
        assert all(line.startswith("PASS blaschke/") for line in out.strip().split("\n"))

    def test_invalid_sample_count_is_a_usage_error(self, capsys):
        code = run_cli("selftest", "--samples", "0", "--filter", "norms")
        captured = capsys.readouterr()
        assert code == 2
        assert "sample_count must be a power of two" in captured.err
        assert "PASS" not in captured.out

    def test_under_resolved_run_fails_with_diagnostic(self, capsys):
        code = run_cli("selftest", "--samples", "16")
        out = capsys.readouterr().out
        assert code != 0
        assert "FAIL" in out
        assert "first failing invariant" in out
