"""Checks of the benchmark harness itself, kept out of the library's test suite:

    python3 -m pytest bench/harness_checks.py

Workloads run at tiny size, so the whole file takes seconds.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from blaschke_basis import cli, fnspace, schauder  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_passes_its_gate(name, tmp_path):
    # A fresh interpreter, as in a real run: peak memory is the growth of the
    # process's peak resident set, which earlier runs in this process would mask.
    code = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import run; "
            "print(json.dumps(run.run_workload(sys.argv[3], seed=3, seconds=0.0, trace=0, "
            "size='tiny', out_dir=sys.argv[4])))")
    done = subprocess.run([sys.executable, "-c", code, BENCH_DIR, os.path.join(ROOT, "src"),
                           name, str(tmp_path)], capture_output=True, text=True, timeout=120,
                          check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] == 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt_expansion(path):
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    obj["coefficients"][3][0] += 1e-6
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


def _corrupt_convergence(path):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) * 1.001)
    lines[1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _corrupt_gram(path):
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    obj["matrix"][0][1][0] += 1e-6
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


@pytest.mark.parametrize("name, corrupt", [
    ("expand-stress", _corrupt_expansion),
    ("convergence-bergman", _corrupt_convergence),
    ("tmw-diagnostics", _corrupt_gram),
])
def test_gate_rejects_corrupted_output(name, corrupt, tmp_path):
    op = workloads.make(name, "tiny").draw(random.Random(4), str(tmp_path))
    assert run.run_op(cli, op)[1] == []
    corrupt(op.commands[0][-1])
    assert op.check()


def test_failing_op_is_counted(tmp_path):
    op = workloads.Op([["expand", "--func", "sine:1", "--seq", "harmonic", "--nterms", "4",
                        "--out", str(tmp_path / "x.json")]], check=lambda: [])
    elapsed, errors = run.run_op(cli, op)
    assert elapsed > 0 and errors and "exit 2" in errors[0]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_fixes_argv_and_only_phases_vary(name, tmp_path):
    workload = workloads.make(name)

    def argvs(seed):
        rng = random.Random(seed)
        return [workload.draw(rng, str(tmp_path)).commands for _ in range(3)]

    assert argvs(11) == argvs(11)
    assert argvs(11) != argvs(12)
    for commands in argvs(11) + argvs(12):
        for argv in commands:
            first = 2 if argv[0] == "tmw" else 1
            flags = dict(zip(argv[first::2], argv[first + 1::2]))
            assert flags["--samples"] == str(workload.samples)
            if flags.get("--func", "").startswith("kernel:"):
                a = workloads.parse_literal(flags["--func"][len("kernel:"):])
                assert math.isclose(abs(a), workloads.KERNEL_RADIUS, rel_tol=1e-15)


def test_traced_run_restores_every_binding(tmp_path):
    before = spans.public_functions()
    chain_binding = schauder.eval_inside
    result = run.run_workload("expand-stress", seed=5, seconds=0.0, trace=1, size="tiny",
                              out_dir=str(tmp_path))
    assert result["correct"], result["failures"]
    assert spans.leftover_wrappers() == []
    assert spans.public_functions() == before
    assert schauder.eval_inside is chain_binding is fnspace.eval_inside
    metrics = result["metrics"]
    # The chain calls reached schauder's own binding of eval_inside.
    assert metrics["fnspace.eval_inside.calls"]["value"] == 24
    assert metrics["fnspace.eval_inside.coef_bytes"]["value"] == 24 * 16 * 256
    assert set(metrics) == set(run.per_layer_units())


def test_self_times_partition_the_root_spans(tmp_path):
    result = run.run_workload("tmw-diagnostics", seed=6, seconds=0.0, trace=1, size="tiny",
                              out_dir=str(tmp_path))
    recorded = result["spans"]
    stats = spans.per_op_stats(recorded)
    for op, by_name in stats.items():
        roots = sum(end - start for o, _, parent, _, start, end, _ in recorded
                    if o == op and parent < 0)
        assert sum(entry[2] for entry in by_name.values()) == pytest.approx(roots, rel=1e-9)
        assert by_name["cli.main"][0] == 3


def test_tail_needs_ten_ops_beyond_it():
    assert run.tail([float(i) for i in range(30)]) == (19.0, 200.0 / 3.0)
    assert run.tail([float(i) for i in range(15)]) == (7.0, 50.0)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())


def test_exits_without_result_when_the_library_is_absent(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "expand-stress",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
