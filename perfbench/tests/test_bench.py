"""Tests of the benchmark itself: span nesting, self-time accounting,
gate failures and the command-line contract.

    python3 -m pytest perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from argparse import Namespace

import pytest

import run
from layers import LAYERS
from tracing import Tracer, instrument, self_times
from workloads import FlowLong, InvariantsScan

import solvflow
from solvflow import asymptotics, flow, invariants


def test_spans_nest_within_their_parents_and_operation(tmp_path):
    tracer = Tracer()
    original = flow.integrate
    with instrument(tracer) as inst:
        assert solvflow.integrate is not original and flow.integrate is not original
        m = run.measure(FlowLong(3, tmp_path), 0.0, tracer)
    assert flow.integrate is original and solvflow.integrate is original
    assert inst.solver_boundary and not m.failures

    spans = tracer.spans
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == [f"bench.flow {m.value}" for m in solvflow.ModelId]
    assert len({s.run for s in roots}) == len(roots)
    for s in spans:
        assert s.start <= s.end
        if s.parent is not None:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end
            assert p.run == s.run
    names = {s.name for s in spans}
    assert {"flow.integrate", "solver.solve_ivp", "catalog.build_model",
            "flow.Trajectory.write_json", "asymptotics.fit_power_law"} <= names
    solver = [s for s in spans if s.name == "solver.solve_ivp"]
    assert all(spans[s.parent].name == "flow.integrate" and s.attrs["nfev"] > 0 for s in solver)


def test_self_times_sum_to_traced_wall_within_overhead(tmp_path):
    args = Namespace(seed=5, seconds=0.0)
    metrics, m, spans = run.traced_run(args, InvariantsScan, tmp_path)
    assert not m.failures
    selfs = self_times(spans)
    assert min(selfs) >= 0.0
    self_sum = sum(metrics[f"{layer}.self_s"].value for layer in (*LAYERS, "solver", "bench"))
    assert self_sum == pytest.approx(sum(selfs))  # one traced iteration
    wall = metrics["trace.traced_wall_s"].value
    overhead = metrics["trace.overhead_s"].value
    assert 0.0 < overhead < wall
    assert abs(wall - self_sum) <= overhead
    assert metrics["invariants.detect_calls"].value == 5
    assert all(metrics[name].value is not None for name in run.declared_metrics()["per_layer"])
    assert metrics["flow.integrate_p50_s"].value is None  # missing, not 0
    assert "no integrate calls" in metrics["flow.integrate_p50_s"].note


def test_failed_gate_counts_and_run_carries_on(tmp_path, monkeypatch):
    real_fit = asymptotics.fit_power_law

    def off_by_half(traj, component, window=None):
        fit = real_fit(traj, component, window)
        return asymptotics.PowerLawFit(fit.exponent + 0.5, fit.log_prefactor, fit.r_squared,
                                       fit.window, fit.n_samples)

    monkeypatch.setattr(asymptotics, "fit_power_law", off_by_half)
    workload = FlowLong(1, tmp_path)
    m = run.measure(workload, 0.0)
    assert (m.attempted, len(m.failures)) == (5, 5)
    assert all("exponent" in f for f in m.failures)
    e2e = run.end_to_end(m, [1.0], workload, {})
    assert e2e["fail_frac"].value == 1.0


def test_raising_operation_is_counted_as_one_failure(tmp_path, monkeypatch):
    def broken(model, max_exp=5, seed=0):
        if model is solvflow.ModelId.D3:
            raise RuntimeError("forced")
        return []

    monkeypatch.setattr(invariants, "detect_monomials", broken)
    workload = InvariantsScan(2, tmp_path)
    m = run.measure(workload, 0.0)
    assert m.attempted == 5 + 5 * InvariantsScan.TABLES_PER_MODEL
    assert len(m.failures) == 5  # one raised, four found no invariants
    assert sum("forced" in f for f in m.failures) == 1
    assert run.end_to_end(m, [1.0], workload, {})["fail_frac"].value == pytest.approx(5 / 45)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_command_prints_declared_metrics_last():
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload",
         "invariants_scan", "--seed", "4", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = _last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 45
    assert list(line["metrics"]) == run.declared_metrics()["end_to_end"]
    assert all(v["value"] > 0 for v in line["metrics"].values())
    for name in ("op_p50_s", "op_tail_s", "fail_frac", "max_drift", "bc_order_violations"):
        assert f"\n{name}: " in proc.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout and "no solvflow sources" in proc.stderr


def test_benchmark_json_follows_its_limits():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in spec[kind]]
    assert all(len(n) <= 64 for n in names)
    assert len(set(m["name"] for m in spec["end_to_end"] + spec["per_layer"])) == \
        len(spec["end_to_end"]) + len(spec["per_layer"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
