"""Benchmark of the blaschke-basis CLI: closed-loop ops on one workload.

    python3 bench/run.py --workload expand-stress --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One caller, one process, no extra threads: each op is one in-process
`blaschke_basis.cli.main(argv)` call per CLI command (three for
tmw-diagnostics), and the next op starts when the previous one returns.
Timed ops run until their summed time reaches --seconds. Every op's output
passes its workload's correctness gate or counts as failed.

--trace 0 reports the end-to-end metrics: the mean op time, peak memory and
set-up time, then the median and tail op times. The first op of the process
is untimed and measures peak memory; `setup_s` is the median time for a fresh
interpreter to import `blaschke_basis.cli`, sampled between the timed ops. --trace 1 alternates untraced
and traced ops and reports per-layer metrics from spans (see spans.py).
The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the full results, and the spans of a traced run, go to bench/out/.
The exit code is 0 only if every gate passed.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from io import StringIO

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("expand-stress", "convergence-bergman", "tmw-diagnostics")

#: Pinned to 1 before numpy loads, so the benchmark runs on one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Fresh imports per run, spread evenly over the timed ops so that the
#: median does not sit in one phase of the host's speed.
SETUP_SAMPLES = 11
#: The tail is the highest percentile with at least this many ops beyond it.
TAIL_BEYOND = 10

#: The metrics BENCHMARK.json bounds. The per-op median and tail are reported
#: too, but on a host whose speed changes for seconds at a time a 30 s run holds
#: too few of those phases for them to repeat within a bound (see README.md).
END_TO_END = {"op_s.mean": "s", "peak_mem_mb": "MB", "setup_s": "s"}

#: Per-layer metrics read from the spans: name -> (span, field, unit), where
#: field indexes a `spans.per_op_stats` entry [calls, s, self_s, work]; `s`
#: is inclusive time, `self_s` excludes child spans.
SPAN_METRICS = {
    "fnspace.eval_inside.calls": ("fnspace.eval_inside", 0, "count"),
    "fnspace.eval_inside.s": ("fnspace.eval_inside", 1, "s"),
    "fnspace.eval_inside.coef_bytes": ("fnspace.eval_inside", 3, "B"),
    "fnspace.from_samples.calls": ("fnspace.from_samples", 0, "count"),
    "fnspace.from_samples.s": ("fnspace.from_samples", 1, "s"),
    "fnspace.samples_at_radius.calls": ("fnspace.samples_at_radius", 0, "count"),
    "fnspace.samples_at_radius.s": ("fnspace.samples_at_radius", 1, "s"),
    "blaschke.blaschke_factor.calls": ("blaschke.blaschke_factor", 0, "count"),
    "blaschke.blaschke_factor.s": ("blaschke.blaschke_factor", 1, "s"),
    "blaschke.blaschke_factor.points": ("blaschke.blaschke_factor", 3, "count"),
    "blaschke.cauchy_kernel.calls": ("blaschke.cauchy_kernel", 0, "count"),
    "blaschke.cauchy_kernel.s": ("blaschke.cauchy_kernel", 1, "s"),
    "toeplitz.toeplitz_factor_apply.calls": ("toeplitz.toeplitz_factor_apply", 0, "count"),
    "toeplitz.toeplitz_factor_apply.self_s": ("toeplitz.toeplitz_factor_apply", 2, "s"),
    "schauder.expansion_coefficients.self_s": ("schauder.expansion_coefficients", 2, "s"),
    "schauder.convergence_study.self_s": ("schauder.convergence_study", 2, "s"),
    "tmw.gram_matrix.self_s": ("tmw.gram_matrix", 2, "s"),
    "tmw.lacunary_witness.self_s": ("tmw.lacunary_witness", 2, "s"),
    "tmw.functional_norm.self_s": ("tmw.functional_norm", 2, "s"),
    "norms.bergman_radial_rule.s": ("norms.bergman_radial_rule", 1, "s"),
    "serialize.dumps_canonical.s": ("serialize.dumps_canonical", 1, "s"),
    "serialize.dumps_canonical.bytes": ("serialize.dumps_canonical", 3, "B"),
    "serialize.write_with_sidecar.s": ("serialize.write_with_sidecar", 1, "s"),
    "cli.main.self_s": ("cli.main", 2, "s"),
}
#: Self time summed per module: these partition the time inside `cli.main`.
LAYERS = ("cli", "serialize", "schauder", "tmw", "toeplitz", "norms", "fnspace", "blaschke")
TRACE_METRICS = {"trace.op_s": "s", "trace.self_sum_s": "s", "trace.unattributed_s": "s",
                 "trace.overhead_s": "s", "trace.spans": "count"}


def per_layer_units() -> dict:
    """Every per-layer metric of a traced run, in report order, with its unit."""
    units = {name: spec[2] for name, spec in SPAN_METRICS.items()}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update(TRACE_METRICS)
    return units


def library_location_error() -> str | None:
    """Why the library under test cannot be imported from this checkout."""
    if not os.path.isfile(os.path.join(SRC, "blaschke_basis", "cli.py")):
        return f"no blaschke_basis package under {SRC}"
    import blaschke_basis

    if not os.path.abspath(blaschke_basis.__file__).startswith(SRC + os.sep):
        return f"blaschke_basis imported from {blaschke_basis.__file__}, not {SRC}"
    return None


def run_op(cli, op, tracer=None) -> tuple[float, list[str]]:
    """Run one op's CLI calls, traced if a tracer is given, then its gate;
    return the calls' wall time and the op's failures."""
    errors = []
    sink = StringIO()
    with tracer.installed() if tracer else nullcontext(), \
            redirect_stdout(sink), redirect_stderr(sink):
        start = time.perf_counter()
        for argv in op.commands:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crashing op is counted, not fatal
                code = f"{type(exc).__name__}: {exc}"
            if code != 0:
                errors.append(f"{argv[0]} {argv[1]}: exit {code} {sink.getvalue().strip()}")
                break
        elapsed = time.perf_counter() - start
    if not errors:
        try:
            errors = op.check()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return elapsed, errors


def memory_mb() -> dict:
    """Resident set size now (VmRSS) and at its peak so far (VmHWM), in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        return {line.split(":")[0]: int(line.split()[1]) * 1024 / 1e6
                for line in handle if line.startswith(("VmRSS:", "VmHWM:"))}


def measure_setup(samples: int) -> list[float]:
    """Wall seconds for fresh interpreters to import blaschke_basis.cli."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import blaschke_basis.cli"
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops
    beyond it; with too few ops for that to reach the median, the median."""
    ordered = sorted(times)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < len(ordered) // 2:
        return statistics.median(ordered), 50.0
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(workload, seed: int, seconds: float, trace: int, size: str) -> dict:
    import numpy
    import scipy

    from blaschke_basis.errors import AnalyticityError, PreconditionError

    try:
        descriptor = workload.descriptor()
    except (AnalyticityError, PreconditionError) as exc:
        descriptor = {"error": str(exc)}

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "commit": commit(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "descriptor": descriptor,
    }


def layer_metrics(spans, traced_ops: dict, untraced: list[float]) -> dict:
    """Per-op medians of the span metrics over the traced ops."""
    from spans import per_op_stats

    stats = per_op_stats(spans)
    units = per_layer_units()
    columns: dict[str, list[float]] = {name: [] for name in units}
    for op, wall in traced_ops.items():
        by_name = stats.get(op, {})
        for metric, (span, field, _) in SPAN_METRICS.items():
            columns[metric].append(by_name.get(span, (0, 0.0, 0.0, 0))[field])
        for layer in LAYERS:
            columns[f"{layer}.self_s"].append(
                sum(v[2] for k, v in by_name.items() if k.split(".")[0] == layer))
        self_sum = sum(v[2] for v in by_name.values())
        columns["trace.op_s"].append(wall)
        columns["trace.self_sum_s"].append(self_sum)
        columns["trace.unattributed_s"].append(wall - self_sum)
        columns["trace.spans"].append(sum(v[0] for v in by_name.values()))
    columns["trace.overhead_s"] = [
        statistics.median(columns["trace.op_s"]) - statistics.median(untraced)]
    return {name: {"value": statistics.median(columns[name]), "unit": unit}
            for name, unit in units.items()}


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str = "full",
                 out_dir: str = OUT_DIR) -> dict:
    """Run one workload; return {meta, metrics, ops, failures, correct, ...}."""
    import blaschke_basis.cli as cli

    import workloads
    from spans import Tracer

    workload = workloads.make(name, size)
    rng = random.Random(seed)
    work_dir = os.path.join(out_dir, "work", name)
    os.makedirs(work_dir, exist_ok=True)
    failures: list[str] = []
    attempted = 0

    def attempt(op, tracer=None) -> float:
        nonlocal attempted
        attempted += 1
        elapsed, errors = run_op(cli, op, tracer)
        failures.extend(errors[:1])
        return elapsed

    # The first op is untimed: it warms caches and, being the first op in
    # the process, its peak resident growth is the op's peak memory.
    baseline = memory_mb()["VmRSS"]
    attempt(workload.draw(rng, work_dir))
    peak_mem = memory_mb()["VmHWM"] - baseline

    result: dict = {"meta": metadata(workload, seed, seconds, trace, size)}
    times: list[float] = []
    if not trace:
        setup: list[float] = []
        while sum(times) < seconds or not times:
            if len(setup) * seconds <= sum(times) * SETUP_SAMPLES:
                setup += measure_setup(1)
            times.append(attempt(workload.draw(rng, work_dir)))
        setup += measure_setup(SETUP_SAMPLES - len(setup))
        values = {"op_s.mean": statistics.fmean(times), "peak_mem_mb": peak_mem,
                  "setup_s": statistics.median(setup)}
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        tail_value, tail_rank = tail(times)
        result["latency"] = {"op_s.p50": {"value": statistics.median(times), "unit": "s"},
                             "op_s.tail": {"value": tail_value, "unit": "s"}}
        result["tail_percentile"] = tail_rank
        result["setup_samples"] = setup
    else:
        tracer = Tracer()
        traced: dict[int, float] = {}
        while sum(times) + sum(traced.values()) < seconds or not times or not traced:
            op = workload.draw(rng, work_dir)
            if len(traced) < len(times):
                op_id = tracer.op = attempted
                traced[op_id] = attempt(op, tracer)
            else:
                times.append(attempt(op))
        result["metrics"] = layer_metrics(tracer.spans, traced, times)
        result["spans"] = tracer.spans
    result.update(
        ops=len(times), op_times=times, attempted=attempted, failed=len(failures),
        failures=failures[:20], correct=not failures,
        example_op=[list(c) for c in workload.draw(random.Random(seed), work_dir).commands],
    )
    return result


def write_results(result: dict, out_dir: str) -> str:
    meta = result["meta"]
    stem = f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}"
    os.makedirs(out_dir, exist_ok=True)
    spans = result.pop("spans", None)
    if spans is not None:
        with gzip.open(os.path.join(out_dir, stem + ".spans.jsonl.gz"), "wt",
                       compresslevel=1, encoding="utf-8") as handle:
            handle.write('["op", "id", "parent", "name", "start", "end", "work"]\n')
            handle.writelines(json.dumps(span) + "\n" for span in spans)
    path = os.path.join(out_dir, stem + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return path


def report(result: dict) -> None:
    meta = result["meta"]
    print(f"workload {meta['workload']}  seed {meta['seed']}  size {meta['size']}  "
          f"trace {meta['trace']}  commit {meta['commit'][:12]}  nproc {meta['nproc']}  "
          f"python {meta['python']}  numpy {meta['numpy']}  scipy {meta['scipy']}")
    print(f"  input: {json.dumps(meta['descriptor'])}")
    notes = {
        "op_s.mean": f"summed time / {result['ops']} timed ops (1/throughput)",
        "op_s.p50": f"median of {result['ops']} timed ops",
        "op_s.tail": (f"p{result.get('tail_percentile', 0):.0f} of {result['ops']} ops"
                      + ("; under 21 ops the tail falls back to the median"
                         if result.get("tail_percentile") == 50.0 else "")),
        "peak_mem_mb": "peak resident growth of the first, untimed op",
        "setup_s": f"median of {SETUP_SAMPLES} fresh imports of blaschke_basis.cli",
    }
    for name, metric in {**result["metrics"], **result.get("latency", {})}.items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']:<6} {notes.get(name, '')}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<36} {ratio:>14.6g} {'ratio':<6} "
          f"{result['failed']} failed of {result['attempted']} ops")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def run_all(args) -> int:
    """Each workload in its own process (peak memory needs a fresh one)."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        try:
            line = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            line = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        summary["correct"] &= line["correct"] and done.returncode == 0
        summary["attempted"] += line["attempted"]
        summary["failed"] += line["failed"]
        summary["metrics"].update({f"{name}/{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    error = library_location_error()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    path = write_results(result, OUT_DIR)
    report(result)
    print(f"  results: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
