"""Acceptance gate: every numbered verification criterion must pass.

Each test prints one PASS/FAIL line (run pytest with -s or look at the
captured output of failures).  Criterion 11 exercises the command-line
round trip, including a full ``check`` in a fresh interpreter.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from solvflow import verify
from solvflow.asymptotics import fit_power_law
from solvflow.catalog import InitialData, ModelId
from solvflow.flow import FlowProblem, Trajectory, integrate, integrate_many
from solvflow.verify import _CRITERION_RUNS, _RUNS, CRITERION_TITLES, VerifySession

RUNTIME_BUDGETS = {1: 1.0, 4: 30.0, 5: 120.0}


@pytest.fixture(scope="module")
def report():
    session = VerifySession(seed=0)
    return session.run_all()


def _emit(result):
    status = "PASS" if result.passed else "FAIL"
    line = (f"criterion {result.number:2d} [{status}] {result.title} "
            f"({result.elapsed_s * 1e3:.1f} ms)")
    print(line)
    return line


@pytest.mark.parametrize("number", sorted(CRITERION_TITLES))
def test_criterion(report, number):
    result = next(c for c in report.criteria if c.number == number)
    _emit(result)
    failures = [i for i in result.items if not i.passed]
    detail = "; ".join(
        f"{i.name}: computed {i.computed}, expected {i.expected}" for i in failures
    )
    assert result.passed, detail
    budget = RUNTIME_BUDGETS.get(number)
    if budget is not None:
        assert result.elapsed_s < budget, f"criterion {number} took {result.elapsed_s:.1f}s"


def test_total_runtime_under_five_minutes(report):
    assert report.elapsed_s < 300.0


def test_report_records_superseded_claims(report):
    subjects = {d.subject for d in report.discrepancies}
    assert "D11 Ric(Y5,Y5) termwise formula" in subjects
    assert "D11 dE/dt" in subjects
    assert "D11 long-time exponents" in subjects
    assert "D11 quantity A^2 E^2 (B^2-C^2)" in subjects
    assert "D11 quantity (B+C)*D^2/((B-C)*E^2)".replace("*", "") in {
        s.replace("*", "") for s in subjects
    }


def test_d11_measured_exponents_refute_tabulated_row(report):
    # the measured exponents must sit on the corrected row and be far from
    # the superseded one: this guards against silently re-introducing it
    result = next(c for c in report.criteria if c.number == 5)
    fits = {i.name: float(i.computed) for i in result.items
            if i.name.startswith("D11 case1 exponent")}
    assert abs(fits["D11 case1 exponent E"] - 0.25) <= 0.01
    assert abs(fits["D11 case1 exponent E"] - 1.0) > 0.5
    assert abs(fits["D11 case1 exponent D"] - 0.25) <= 0.01
    assert abs(fits["D11 case1 exponent B"] - 0.25) <= 0.01


def test_d11_order_gated_over_the_long_run(report):
    # the exact flow keeps B > C; before B and C were reflected, 89 of the
    # 289 samples of this run had B < C
    result = next(c for c in report.criteria if c.number == 9)
    [item] = [i for i in result.items if i.name == "D11 l2>l3: no sample has B < C (t<=1e4)"]
    assert item.passed and item.computed == 0


def test_report_tabulates_each_run(report):
    # the canonical runs, criterion 10's abelian run among them, and
    # criterion 4's draws share one stacked solve
    c4 = {f"c4_{model.value}" for model in ModelId}
    assert set(report.runs) == c4 | set(_RUNS)
    for key, run in report.runs.items():
        assert set(run) == {"solver", "nfev", "steps", "rejected_steps", "min_step_log_t",
                            "wall_s", "termination", "batch_size", "max_drift"}, key
        assert run["termination"] == "reached_t_end", key
        assert run["nfev"] > 0 and run["steps"] > 0 and run["wall_s"] > 0.0, key
        assert run["batch_size"] == len(_RUNS) + 100 == 112, key
        assert all(math.isfinite(run[k]) for k in ("nfev", "steps", "rejected_steps",
                                                   "min_step_log_t", "wall_s", "max_drift")), key
    assert len({(run["nfev"], run["steps"], run["wall_s"]) for run in report.runs.values()}) == 1
    assert report.runs["c4_D11"]["solver"] == ("DOP853 on log g in log(1+t), "
                                               "(B,C) -> (s, log|r|)")
    json.dumps(report.as_dict()["runs"], allow_nan=False)


def test_every_run_is_declared_by_a_criterion():
    declared = {key for keys in _CRITERION_RUNS.values() for key in keys}
    assert declared == set(_RUNS)
    assert set(_CRITERION_RUNS) <= set(CRITERION_TITLES)


@pytest.mark.parametrize("number", sorted(CRITERION_TITLES))
def test_criterion_solves_exactly_its_declared_runs(monkeypatch, number):
    # run_all solves the declared runs and criterion 4's draws up front, in
    # one stacked solve, so no criterion falls back to a solve of its own
    def no_lazy_solve(problem):
        raise AssertionError(f"lazy solve of {problem}")

    solves = []

    def counted(problems):
        solves.append(len(problems))
        return integrate_many(problems)

    monkeypatch.setattr(verify, "integrate", no_lazy_solve)
    monkeypatch.setattr(verify, "integrate_many", counted)
    session = VerifySession(seed=0)
    report = session.run_all([number])
    assert report.criteria[0].passed
    declared = set(_CRITERION_RUNS.get(number, ()))
    assert set(session._cache) == declared
    assert set(report.runs) - set(session._batches) == declared
    draws = 100 if number == 4 else 0
    assert solves == ([len(declared) + draws] if declared or draws else [])


def test_runs_of_unselected_models_are_not_solved():
    session = VerifySession(seed=0, models=[ModelId.D1, ModelId.D5])
    session.run_all([3, 5, 6, 7, 9])
    assert set(session._cache) == {"d5_unit_10", "d1_case1_1e6", "d1_case2_1e6"}


class TestCriterion11:
    def test_csv_fit_round_trip_bit_identical(self, tmp_path):
        problem = FlowProblem(ModelId.D3, InitialData((1, 1, 1, 1, 1)), 1e5)
        traj = integrate(problem)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        again = Trajectory.read_csv(path)
        for comp in "ABCDE":
            a = fit_power_law(traj, comp, (1e3, 1e5))
            b = fit_power_law(again, comp, (1e3, 1e5))
            assert a.exponent == b.exponent
            assert a.log_prefactor == b.log_prefactor
            assert a.r_squared == b.r_squared
        print("criterion 11 [PASS] flow->CSV->fit round trip bit-identical")

    def test_check_command_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "solvflow.cli", "check", "--seed", "0",
             "--out", str(out)],
            capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert elapsed < 300.0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert len(doc["criteria"]) == 10
        assert doc["discrepancies"]
        print(f"criterion 11 [PASS] check exits 0 in {elapsed:.1f}s")
