"""Benchmark of solvflow: one workload, one seed, one process.

    python3 perfbench/run.py --workload {check,flow_long,invariants_scan} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports solvflow from ``src/`` there
and nowhere else, and pins the BLAS thread pools to one thread.  It repeats
iterations of the workload until ``S`` seconds have passed (at least one),
checks every operation's output, prints every metric as ``name: value unit``
and, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and the ``metrics`` that BENCHMARK.json declares: the end-to-end
ones with ``--trace 0``, the per-layer ones with ``--trace 1``.

``--trace 1`` runs traced iterations only.  Its tracing overhead is the
number of spans per iteration times the cost of one span, timed on a traced
no-op; the untraced ``wall_s`` is the ``--trace 0`` run's.  Every result,
the spans of a traced run included, is written to ``.bench_out/`` in the
checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import BENCH

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 10
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("check", "flow_long", "invariants_scan")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Measurement:
    """Timings and outcomes of consecutive iterations of one workload."""

    iteration_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def measure(workload, seconds: float, tracer=None) -> Measurement:
    """Run whole iterations while another one is expected to end within
    ``seconds``; at least one.

    With a tracer, each operation gets a root span and its own run id."""
    m = Measurement()
    start = perf_counter()
    iteration = 0
    while True:
        t_it = perf_counter()
        for op in workload.ops(iteration):
            # the root span covers the bookkeeping too, so that the spans
            # account for nearly all of the iteration's time
            if tracer is not None:
                tracer.run += 1
                root = tracer.open(f"bench.{op.label}", BENCH)
            t_op = perf_counter()
            try:
                attempted, failures = op.fn()
            except Exception:  # a failed operation is counted; the run carries on
                attempted, failures = 1, [f"{op.label} raised:\n{traceback.format_exc()}"]
            m.op_s.append(perf_counter() - t_op)
            m.attempted += attempted
            m.failures.extend(failures)
            if tracer is not None:
                tracer.close(root)
        m.iteration_s.append(perf_counter() - t_it)
        iteration += 1
        if perf_counter() - start + statistics.median(m.iteration_s) > seconds:
            return m


def import_solvflow():
    """Put the checkout's ``src`` first on the path and import the package
    from there, never from an installed copy."""
    if not (SRC / "solvflow" / "__init__.py").is_file():
        raise BenchError(f"no solvflow sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import solvflow

    if Path(solvflow.__file__).resolve().parent != (SRC / "solvflow").resolve():
        raise BenchError(f"imported solvflow from {solvflow.__file__}, not {SRC}")
    return solvflow


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pinning": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_seconds(workload: str, seed: int, repeats: int) -> list[float]:
    """Fresh interpreters, each timed from its start until it has imported
    solvflow and built the workload's inputs."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(repeats):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline().strip()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready" or code != 0:
            raise BenchError(f"set-up probe failed (exit {code}, said {line!r})")
        samples.append(elapsed)
    return samples


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics() -> dict[str, list[str]]:
    spec = benchmark_spec()
    return {kind: [m["name"] for m in spec[kind]] for kind in ("end_to_end", "per_layer")}


def fmt(value) -> str:
    return "missing" if value is None else repr(value)


def end_to_end(m: Measurement, setup: list[float], workload, extra: dict) -> dict:
    from layers import Metric, timing

    out = {
        "setup_s": Metric(statistics.median(setup), "s",
                          f"median of {len(setup)} fresh interpreters"),
        "wall_s": Metric(statistics.median(m.iteration_s), "s",
                         f"median of {len(m.iteration_s)} untraced iterations"),
    }
    timing(m.op_s, "op", out, "operations")
    out["fail_frac"] = Metric(len(m.failures) / m.attempted, "ratio",
                              f"{len(m.failures)} of {m.attempted} checked")
    out["max_drift"] = Metric(workload.max_drift, "ratio",
                              "worst relative drift of a conserved monomial"
                              if workload.max_drift is not None else
                              "no trajectories on this workload")
    out["max_exp_err"] = Metric(workload.max_exp_err, "1",
                                "worst |fitted - catalog| exponent"
                                if workload.max_exp_err is not None else
                                "no exponent fits on this workload")
    if "bc_order_violations" in extra:
        out["bc_order_violations"] = Metric(
            extra["bc_order_violations"], "count",
            f"samples with B <= C of {extra['bc_order_samples']} in d11_case2_1e4; "
            "known defect, not a gate")
    else:
        out["bc_order_violations"] = Metric(None, "count", "measured on check only")
    return out


def run(args) -> int:
    pin_threads()
    import_solvflow()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    make = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.probe:
            make(args.seed, Path(workdir))
            print("ready", flush=True)
            return 0
        env = environment(args)
        print("env: " + json.dumps(env))
        declared = declared_metrics()
        result = {"env": env}
        if args.trace:
            metrics, m, spans = traced_run(args, make, Path(workdir))
            names = declared["per_layer"]
            result["spans"] = [[s.name, s.start, s.end, s.parent, s.run] for s in spans]
        else:
            # half of the set-up probes before the timed iterations and half
            # after, so that their median spans the same stretch of machine
            # speed as wall_s does
            setup = setup_seconds(args.workload, args.seed, SETUP_REPEATS // 2)
            workload = make(args.seed, Path(workdir))
            m = measure(workload, args.seconds)
            setup += setup_seconds(args.workload, args.seed, SETUP_REPEATS - len(setup))
            metrics = end_to_end(m, setup, workload, workload.finish())
            names = declared["end_to_end"]

    for name, metric in metrics.items():
        print(f"{name}: {fmt(metric.value)} {metric.unit}"
              + (f"  ({metric.note})" if metric.note else ""))
    for failure in m.failures[:20]:
        print(f"FAILED {failure}")
    result["metrics"] = {k: {"value": v.value, "unit": v.unit, "note": v.note}
                         for k, v in metrics.items()}
    result["failures"] = m.failures
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n")

    line = {
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": {name: {"value": metrics[name].value, "unit": metrics[name].unit}
                    for name in names if metrics.get(name) and metrics[name].value is not None},
    }
    print(json.dumps(line))
    return 0


def traced_run(args, make, workdir: Path):
    """Traced iterations for ``args.seconds``, then the untraced per-call
    costs; returns the per-layer metrics."""
    from layers import Metric, layer_metrics, microbench
    from tracing import Tracer, instrument, span_cost_s

    tracer = Tracer()
    workload = make(args.seed, workdir)
    with instrument(tracer) as inst:
        m = measure(workload, args.seconds, tracer)
    iterations = len(m.iteration_s)
    metrics = layer_metrics(tracer.spans, iterations, inst.solver_boundary, microbench(),
                            workload.criterion_s())
    spans = len(tracer.spans) / iterations
    cost_s = span_cost_s()
    metrics["trace.traced_wall_s"] = Metric(statistics.median(m.iteration_s), "s",
                                            f"median of {iterations} traced iterations")
    metrics["trace.spans"] = Metric(spans, "count",
                                    f"per iteration; {inst.patched} attributes wrapped")
    metrics["trace.span_cost_us"] = Metric(cost_s * 1e6, "us",
                                           "traced no-op call less the bare call")
    metrics["trace.overhead_s"] = Metric(spans * cost_s, "s",
                                         "computed per iteration: spans x span_cost_us")
    return metrics, m, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
