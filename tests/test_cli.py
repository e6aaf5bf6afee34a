"""End-to-end tests of the command-line driver."""

import csv
import json
import os

import numpy as np
import pytest

from blaschke_basis.cli import main


def run_cli(*argv):
    return main(list(argv))


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

    def test_env_var_overrides_samples(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BLASCHKE_SAMPLES", "512")
        out = tmp_path / "e.json"
        assert run_cli("expand", "--func", "poly:1", "--seq", "harmonic-shifted",
                       "--nterms", "2", "--out", str(out)) == 0
        assert json.loads(out.read_text())["meta"]["sample_count"] == 512


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
    ], ids=["samples-zero", "support-not-integer", "bergman-zero-nodes",
            "bergman-negative-nodes"])
    def test_rejected_as_usage_error(self, tmp_path, argv):
        assert run_cli(*argv, "--out", str(tmp_path / "no.out")) == 2


class TestSelftest:
    def test_filter_runs_subset(self, capsys):
        code = run_cli("selftest", "--filter", "blaschke")
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip()
        assert all(line.startswith("PASS blaschke/") for line in out.strip().split("\n"))

    def test_under_resolved_run_fails_with_diagnostic(self, capsys):
        code = run_cli("selftest", "--samples", "16")
        out = capsys.readouterr().out
        assert code != 0
        assert "FAIL" in out
        assert "first failing invariant" in out
